package expr

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/partition"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden")

// ledgerCells are the four default-point cells (k=10, P=10, thr=0.5,
// tps=1300), one per algorithm in the figures' order. Every panel of
// Figures 3–6 shares this point, and Figures 8 and 9 plot these runs; they
// are the only pipeline cells this package's tests run.
func ledgerCells() []Params {
	cells := make([]Params, len(algorithms))
	for i, alg := range algorithms {
		cells[i] = Params{Algorithm: alg}
	}
	return cells
}

// writeLedger renders the figure ledger: every scalar of the default-point
// cells at full precision, then Figures 7, 8, 9, Theory and Mixing exactly
// as Figure.WriteTo prints them.
func writeLedger(s *Suite, cells []*CellResult) []byte {
	var b bytes.Buffer
	b.WriteString("== Cells: default point (k=10, P=10, thr=0.5, tps=1300) ==\n")
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range cells {
		fmt.Fprintf(&b, "\n-- %s --\n", c.Params.Algorithm)
		for _, row := range [][2]string{
			{"communication", g(c.Communication)},
			{"load_gini", g(c.LoadGini)},
			{"mean_abs_error", g(c.MeanAbsError)},
			{"coverage", g(c.Coverage)},
			{"repartitions", strconv.Itoa(c.Repartitions)},
			{"cause_comm", strconv.Itoa(c.CauseComm)},
			{"cause_load", strconv.Itoa(c.CauseLoad)},
			{"cause_both", strconv.Itoa(c.CauseBoth)},
			{"single_additions", strconv.Itoa(c.SingleAdditions)},
			{"merges", strconv.Itoa(c.Merges)},
		} {
			fmt.Fprintf(&b, "%-16s  %s\n", row[0], row[1])
		}
	}
	for _, f := range []*Figure{Fig7(s), Fig8(s), Fig9(s), TheoryFigure(s), GiantComponentFigure(1, 3)} {
		b.WriteString("\n")
		f.WriteTo(&b)
	}
	return b.Bytes()
}

// TestFigureLedger pins the reproduced figures byte for byte in
// testdata/figures.golden (go test -run TestFigureLedger -update rewrites
// it) and asserts the paper's qualitative claims on the cells behind them.
func TestFigureLedger(t *testing.T) {
	s := fastSuite()
	cells := s.RunAll(ledgerCells())
	got := writeLedger(s, cells)
	golden := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read ledger (run with -update to regenerate): %v", err)
	}
	if line, g, w := firstDiff(got, want); line > 0 {
		t.Errorf("ledger differs from %s at line %d (-update rewrites it; git diff shows the change):\n got: %q\nwant: %q", golden, line, g, w)
	}

	// Figures 3 and 4: DS has the least communication, SCL the flattest
	// load. Figure 5: coverage above the paper's 97 %, and error within the
	// bound the benchmark applies to the service.
	by := map[partition.Algorithm]*CellResult{}
	for _, c := range cells {
		by[c.Params.Algorithm] = c
	}
	ds, scl := by[partition.DS], by[partition.SCL]
	for alg, c := range by {
		if alg != partition.DS && c.Communication <= ds.Communication {
			t.Errorf("%s communication %g does not exceed DS's %g", alg, c.Communication, ds.Communication)
		}
		if alg != partition.SCL && c.LoadGini <= scl.LoadGini {
			t.Errorf("%s load Gini %g does not exceed SCL's %g", alg, c.LoadGini, scl.LoadGini)
		}
		if c.Coverage < 0.97 {
			t.Errorf("%s coverage %g < 0.97", alg, c.Coverage)
		}
		if c.MeanAbsError > 0.10 {
			t.Errorf("%s mean absolute error %g > 0.10", alg, c.MeanAbsError)
		}
	}
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, with both lines; 0 when they are equal.
func firstDiff(got, want []byte) (int, string, string) {
	if bytes.Equal(got, want) {
		return 0, "", ""
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; ; i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) || i >= len(g) || i >= len(w) {
			return i + 1, string(gl), string(wl)
		}
	}
}
