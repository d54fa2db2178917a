package archive

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/operators"
	"repro/internal/partition"
	"repro/internal/tagset"
	"repro/internal/trend"
)

// richCheckpoint is a checkpoint with every part filled: several Tracker
// periods, one of them empty, the evicted LRU, trend predictors and events,
// and partitions. Empty slices are nil, as the decoder leaves them.
func richCheckpoint() *Checkpoint {
	set := tagset.New
	return &Checkpoint{
		DocsFed:      123456,
		ReplayFrom:   120000,
		ReplayPeriod: 9,
		Dict:         []string{"go", "rust", "zig", "ocaml", "lisp"},
		Epoch:        3,
		Merges:       4,
		RefAvgCom:    1.75,
		RefMaxLoad:   0.4,
		HasRef:       true,
		Partitions: []partition.Partition{
			{Tags: set(0, 1, 2), Load: 40},
			{Tags: set(2, 3, 4), Load: 17},
		},
		Tracker: operators.TrackerState{
			Periods: []operators.PeriodCoefficients{
				{Period: 6, Coeffs: []jaccard.Coefficient{
					{Tags: set(0, 1), J: 0.5, CN: 12},
					{Tags: set(0, 1, 2), J: 0.125, CN: 3},
					{Tags: set(1, 3), J: 1, CN: 40},
				}},
				{Period: 7},
				{Period: 8, Coeffs: []jaccard.Coefficient{
					{Tags: set(2, 4), J: 0.75, CN: 8},
				}},
			},
			Floor:  5,
			Pruned: 5,
			Evicted: []operators.EvictedCoefficient{
				{Coeff: jaccard.Coefficient{Tags: set(0, 4), J: 0.2, CN: 2}, Period: 4},
				{Coeff: jaccard.Coefficient{Tags: set(3, 4), J: 0.6, CN: 9}, Period: 5},
			},
			EvictedHits: 17,
			Received:    9000,
			Duplicates:  120,
			Late:        3,
		},
		Trend: &trend.StreamState{
			Predictors: []trend.TrendPredictor{
				{Tags: set(0, 1), Expectation: 0.45, Base: 0.4, Period: 8, Seen: 3},
				{Tags: set(2, 4), Expectation: 0.7, Base: 0.7, Period: 8, Seen: 1},
			},
			Periods: []trend.PeriodTrendEvents{
				{Period: 7, Events: []trend.Event{
					{Tags: set(0, 1), Period: 7, Predicted: 0.3, Observed: 0.5, Score: 0.2, Rising: true, CN: 10},
				}},
				{Period: 8},
			},
			Floor:      5,
			Pruned:     5,
			Latest:     8,
			Scored:     30,
			Filtered:   4,
			OutOfOrder: 1,
			Late:       2,
			Published:  25,
			Dropped:    1,
		},
	}
}

// TestCheckpointRoundTrip writes a checkpoint with every part filled through
// the Writer and loads it back unchanged.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp := richCheckpoint()
	if err := w.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(filepath.Join(dir, checkpointName(cp.Seq)))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != ckptVersion {
		t.Fatalf("written version %d, want %d", v, ckptVersion)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("loaded checkpoint differs:\n got %+v\nwant %+v", got, cp)
	}
	// The writer leaves the caller's Tracker periods in place.
	if len(cp.Tracker.Periods) != 3 {
		t.Fatalf("written checkpoint lost its periods: %+v", cp.Tracker.Periods)
	}
}

// TestCheckpointRejectsCorruptSections loads every damaged copy of a
// version-3 file that corruptCheckpoints derives (the fuzz target's seeds)
// and requires each to fail: torn at a section boundary, a bad section
// CRC, a section past the end, an unknown id, a repeated section or
// period.
func TestCheckpointRejectsCorruptSections(t *testing.T) {
	v3 := encodeCheckpoint(richCheckpoint())
	if _, err := decodeCheckpoint(v3); err != nil {
		t.Fatalf("intact file: %v", err)
	}
	bad := corruptCheckpoints(v3)
	if len(bad) < 8 {
		t.Fatalf("%d corruptions, want one of each kind", len(bad))
	}
	for _, c := range bad {
		if cp, err := decodeCheckpoint(c.data); err == nil {
			t.Errorf("%s: loaded %+v", c.name, cp)
		}
	}
}

// benchCheckpointState is BenchmarkWriteCheckpoint's state: 8 Tracker
// periods of 48 000 coefficients (pairs and triples over 20 000 tags),
// 100 000 trend predictors and a dictionary of 20 000 tags.
func benchCheckpointState() (periods [][]jaccard.Coefficient, preds []trend.TrendPredictor, dict []string) {
	rng := rand.New(rand.NewSource(1))
	set := func() tagset.Set {
		a := tagset.Tag(rng.Intn(20000))
		if rng.Intn(4) == 0 {
			return tagset.New(a, a+1+tagset.Tag(rng.Intn(50)), a+60+tagset.Tag(rng.Intn(50)))
		}
		return tagset.New(a, a+1+tagset.Tag(rng.Intn(100)))
	}
	periods = make([][]jaccard.Coefficient, 8)
	for i := range periods {
		periods[i] = make([]jaccard.Coefficient, 48000)
		for j := range periods[i] {
			periods[i][j] = jaccard.Coefficient{Tags: set(), J: rng.Float64(), CN: int64(1 + rng.Intn(100))}
		}
	}
	preds = make([]trend.TrendPredictor, 100000)
	for i := range preds {
		preds[i] = trend.TrendPredictor{Tags: set(), Expectation: rng.Float64(), Base: rng.Float64(),
			Period: int64(1 + rng.Intn(8)), Seen: 1 + rng.Intn(8)}
	}
	dict = make([]string, 20000)
	for i := range dict {
		dict[i] = fmt.Sprintf("tag-%d", i)
	}
	return periods, preds, dict
}

// BenchmarkWriteCheckpoint writes checkpoints of benchCheckpointState
// through one Writer as the pipeline's checkpoint writer does, in two
// cases. steady: before each write 2 of the 8 Tracker periods take writes,
// so their sections are encoded afresh and the other 6 are written from
// the section cache. rotating: before each write the oldest period is
// pruned and a new one opened, which is encoded afresh while the other 7
// come from cache. The predictors, encoded in full every time, and the
// fsync are included.
func BenchmarkWriteCheckpoint(b *testing.B) {
	periods, preds, dict := benchCheckpointState()
	for _, rotating := range []bool{false, true} {
		name := "steady"
		if rotating {
			name = "rotating"
		}
		b.Run(name, func(b *testing.B) {
			w, err := OpenWriter(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			writes := make([]uint64, len(periods))
			first := int64(1) // the oldest period held
			build := func(c *SectionCache) *Checkpoint {
				cp := &Checkpoint{ReplayPeriod: first + int64(len(periods)), Dict: dict,
					Trend: &trend.StreamState{Predictors: preds}}
				for p := first; p < first+int64(len(periods)); p++ {
					i := int(p) % len(periods)
					pc := operators.PeriodCoefficients{Period: p}
					if !c.TrackerPeriod(p, writes[i]) {
						pc.Coeffs = periods[i]
					}
					cp.Tracker.Periods = append(cp.Tracker.Periods, pc)
				}
				return cp
			}
			write := func(i int) {
				if rotating {
					first++
				} else {
					writes[(2*i)%len(periods)]++
					writes[(2*i+1)%len(periods)]++
				}
				if err := w.WriteCheckpointFrom(build); err != nil {
					b.Fatal(err)
				}
			}
			// Two warm-up writes: the second prunes a period, whose buffer
			// the first timed rotating write recycles.
			if err := w.WriteCheckpointFrom(build); err != nil {
				b.Fatal(err)
			}
			write(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				write(i)
			}
		})
	}
}
