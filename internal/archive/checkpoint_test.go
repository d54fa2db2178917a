package archive

import (
	"encoding/binary"
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
// and partitions. Empty slices are nil, as gob decodes them.
// testdata/checkpoint-v1.ckpt holds it as a version-1 file, Seq 1.
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

// TestCheckpointReadsV1 loads a version-1 file, written by the gob-only
// encoder this package used before the periods got their own part, into
// the checkpoint it was written from: a daemon upgraded mid-life restarts
// from its last checkpoint.
func TestCheckpointReadsV1(t *testing.T) {
	path := filepath.Join("testdata", "checkpoint-v1.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != ckptV1 {
		t.Fatalf("fixture is version %d, want %d", v, ckptV1)
	}
	got, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	want := richCheckpoint()
	want.Seq = 1
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v1 checkpoint differs:\n got %+v\nwant %+v", got, want)
	}
}
