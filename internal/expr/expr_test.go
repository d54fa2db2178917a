package expr

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/partition"
	"repro/internal/quality"
	"repro/internal/stream"
	"repro/internal/twitgen"
)

// fastSuite shrinks the stream and the pipeline cadence so harness tests
// stay quick: two virtual minutes (31 200 tagged documents) per cell with
// 10-second windows. Every test shares the one suite and asks only for the
// ledger's four cells, which the suite runs once, concurrently, on first
// use; the Suite's cache is what TestCellCaching asserts.
var fastSuite = sync.OnceValue(func() *Suite {
	def := Defaults{
		Minutes:     2,
		Seed:        2,
		WindowSpan:  stream.Seconds(10),
		ReportEvery: stream.Seconds(10),
		StatsEvery:  200,
	}
	s := NewSuite(def, func(tps int, seed int64) twitgen.Config {
		c := twitgen.Default()
		c.TPS = tps * 4 // 4x tagged docs per virtual second
		c.Seed = seed
		c.Topics = 200
		c.TagsPerTopic = 10
		return c
	})
	s.RunAll(ledgerCells())
	return s
})

func TestCellCaching(t *testing.T) {
	s := fastSuite()
	a := s.Cell(Params{Algorithm: partition.DS})
	b := s.Cell(Params{Algorithm: partition.DS})
	if a != b {
		t.Error("identical params were not cached")
	}
	c := s.Cell(Params{Algorithm: partition.SCC})
	if a == c {
		t.Error("distinct params shared a cell")
	}
}

func TestCellNormalisation(t *testing.T) {
	s := fastSuite()
	r := s.Cell(Params{Algorithm: partition.DS})
	if r.Params.K != 10 || r.Params.P != 10 || r.Params.Thr != 0.5 || r.Params.TPS != 1300 {
		t.Errorf("defaults not applied: %+v", r.Params)
	}
}

func TestCellMetricsSane(t *testing.T) {
	s := fastSuite()
	for _, alg := range []partition.Algorithm{partition.DS, partition.SCC} {
		r := s.Cell(Params{Algorithm: alg})
		if r.Communication < 1 || r.Communication > 10 {
			t.Errorf("%s: communication %g", alg, r.Communication)
		}
		if r.LoadGini < 0 || r.LoadGini >= 1 {
			t.Errorf("%s: gini %g", alg, r.LoadGini)
		}
		if r.Coverage < 0.5 || r.Coverage > 1 {
			t.Errorf("%s: coverage %g", alg, r.Coverage)
		}
		if r.MeanAbsError < 0 || r.MeanAbsError > 0.5 {
			t.Errorf("%s: error %g", alg, r.MeanAbsError)
		}
		if r.Merges < 1 {
			t.Errorf("%s: merges %d", alg, r.Merges)
		}
		if r.Dissem == nil || r.Dissem.CommSeries.Len() == 0 {
			t.Errorf("%s: missing time series", alg)
		}
	}
}

func TestRunAllParallel(t *testing.T) {
	s := fastSuite()
	cells := ledgerCells()
	out := s.RunAll(cells)
	if len(out) != len(cells) {
		t.Fatalf("got %d results", len(out))
	}
	for i, r := range out {
		if r == nil {
			t.Fatalf("cell %d nil", i)
		}
	}
	// Cached: re-running returns the same pointers.
	again := s.RunAll(cells)
	for i := range out {
		if out[i] != again[i] {
			t.Error("RunAll did not reuse cache")
		}
	}
}

func TestSweepCellsDistinct(t *testing.T) {
	cells := SweepCells()
	// The grid has thr{0.2,0.5} ∪ P{3,5,10} ∪ k{5,10,20} ∪ tps{1300,2600};
	// the default point (thr=0.5, P=10, k=10, tps=1300) is shared by all
	// four panels, leaving 7 distinct points × 4 algorithms.
	if len(cells) != 28 {
		t.Errorf("sweep cells = %d, want 28", len(cells))
	}
	for _, c := range cells {
		if !c.Algorithm.Valid() {
			t.Errorf("invalid algorithm in sweep: %q", c.Algorithm)
		}
	}
}

func TestFiguresRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure rendering is slow")
	}
	s := fastSuite()
	for _, build := range []func(*Suite) *Figure{Fig7, TheoryFigure} {
		f := build(s)
		var sb strings.Builder
		if _, err := f.WriteTo(&sb); err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		out := sb.String()
		if !strings.Contains(out, f.ID) {
			t.Errorf("%s: missing header in output", f.ID)
		}
		if len(f.Panels) == 0 {
			t.Errorf("%s: no panels", f.ID)
		}
	}
}

func TestDecimate(t *testing.T) {
	pts := make([]quality.Point, 100)
	for i := range pts {
		pts[i] = quality.Point{X: float64(i)}
	}
	out := decimate(pts, 10)
	if len(out) != 10 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0].X != 0 || out[9].X != 99 {
		t.Errorf("endpoints: %g..%g", out[0].X, out[9].X)
	}
	if got := decimate(pts[:5], 10); len(got) != 5 {
		t.Errorf("short input decimated to %d", len(got))
	}
}

func TestMarksSummary(t *testing.T) {
	if got := marksSummary(nil); got != "none" {
		t.Errorf("empty = %q", got)
	}
	if got := marksSummary([]float64{1000, 2000}); !strings.Contains(got, "1k") {
		t.Errorf("short = %q", got)
	}
	long := marksSummary([]float64{1000, 2000, 3000, 4000, 5000, 6000})
	if !strings.Contains(long, "6 positions") {
		t.Errorf("long = %q", long)
	}
}

func TestGiantComponentFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("mixing figure is slow")
	}
	f := GiantComponentFigure(1, 3)
	if len(f.Panels) != 1 || len(f.Panels[0].Rows) != 4 {
		t.Fatalf("unexpected shape: %+v", f)
	}
}

func TestFigureWriteTo(t *testing.T) {
	f := &Figure{ID: "X", Title: "demo", Panels: []Panel{{
		Title:  "p",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}}}
	var sb strings.Builder
	n, err := f.WriteTo(&sb)
	if err != nil || n == 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !strings.Contains(sb.String(), "333") {
		t.Error("row content missing")
	}
}
