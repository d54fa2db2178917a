package operators

import (
	"testing"

	"repro/internal/jaccard"
	"repro/internal/storm"
	"repro/internal/tagset"
	"repro/internal/trend"
)

func coeffBatchTuple(period int64, cs ...jaccard.Coefficient) storm.Tuple {
	return storm.Tuple{Stream: StreamCoeff, Values: []interface{}{CoeffBatch{
		Period: period,
		Coeffs: cs,
	}}}
}

// trendBatches returns the TrendBatch messages a collector captured, in
// emission order.
func trendBatches(out *collector) []TrendBatch {
	var bs []TrendBatch
	for _, t := range out.byStream(StreamTrend) {
		bs = append(bs, t.Values[0].(TrendBatch))
	}
	return bs
}

// TestTrackerTrendEmission pins the Tracker→Trend contract: exactly the
// reports that change the Tracker's tables — fresh (period, tagset) values
// and strictly-higher-CN upgrades — are forwarded on StreamTrend, one
// TrendBatch per ingested CoeffBatch that had any, so the detector
// converges to the Tracker's deduplicated state.
func TestTrackerTrendEmission(t *testing.T) {
	tr := NewTrackerWith(4, 8, 0)
	tr.EnableTrendEmit()
	out := newCollector()
	pair := tagset.New(1, 2)
	c1 := jaccard.Coefficient{Tags: pair, J: 0.5, CN: 3}
	c2 := jaccard.Coefficient{Tags: pair, J: 0.6, CN: 7}
	c3 := jaccard.Coefficient{Tags: pair, J: 0.4, CN: 5}

	tr.Execute(coeffBatchTuple(1, c1), out) // fresh: emitted
	tr.Execute(coeffBatchTuple(1, c2), out) // CN upgrade: emitted
	tr.Execute(coeffBatchTuple(1, c3), out) // lower CN: ignored, no tuple at all

	emits := trendBatches(out)
	if len(emits) != 2 {
		t.Fatalf("trend emissions = %d, want 2 (fresh + upgrade)", len(emits))
	}
	for i, want := range []jaccard.Coefficient{c1, c2} {
		msg := emits[i]
		if msg.Period != 1 || len(msg.Coeffs) != 1 || msg.Coeffs[0].J != want.J || msg.Coeffs[0].CN != want.CN {
			t.Errorf("emission %d = %+v, want %+v", i, msg, want)
		}
	}
	if got := tr.StatsSnapshot().Received; got != 3 {
		t.Errorf("received = %d, want one per batched coefficient", got)
	}
}

// TestTrackerTrendEmissionMixedBatch: one CoeffBatch mixing a fresh report,
// a CN upgrade, an ignored lower-CN duplicate and a report whose shard has
// already dropped the period (pruned between the registry check and the
// shard lock) yields exactly one TrendBatch, carrying the two accepted
// coefficients in arrival order.
func TestTrackerTrendEmissionMixedBatch(t *testing.T) {
	tr := NewTrackerWith(4, 8, 0)
	tr.EnableTrendEmit()
	co := func(a tagset.Tag, j float64, cn int64) jaccard.Coefficient {
		return jaccard.Coefficient{Tags: tagset.New(a, a+1), J: j, CN: cn}
	}
	// The late report needs a shard of its own: raising that shard's floor
	// must not touch the other three reports.
	lateTag := tagset.Tag(0)
	for a := tagset.Tag(40); lateTag == 0; a++ {
		s := tr.shardOf(tagset.New(a, a+1).Key())
		if s != tr.shardOf(tagset.New(10, 11).Key()) && s != tr.shardOf(tagset.New(20, 21).Key()) &&
			s != tr.shardOf(tagset.New(30, 31).Key()) {
			lateTag = a
		}
	}

	tr.Execute(coeffBatchTuple(1, co(10, 0.5, 3), co(20, 0.5, 5)), nil)
	lateShard := tr.shardOf(tagset.New(lateTag, lateTag+1).Key())
	lateShard.mu.Lock()
	lateShard.floor = 1
	lateShard.mu.Unlock()

	fresh, upgrade := co(30, 0.7, 4), co(10, 0.6, 7)
	batch := coeffBatchTuple(1, fresh, co(lateTag, 0.9, 9), upgrade, co(20, 0.1, 2))
	out := newCollector()
	tr.Execute(batch, out)

	emits := trendBatches(out)
	if len(emits) != 1 {
		t.Fatalf("trend emissions = %d, want one batch", len(emits))
	}
	got := emits[0]
	if got.Period != 1 || len(got.Coeffs) != 2 {
		t.Fatalf("batch = %+v, want period 1 with the two accepted reports", got)
	}
	for i, want := range []jaccard.Coefficient{fresh, upgrade} {
		if c := got.Coeffs[i]; !c.Tags.Equal(want.Tags) || c.J != want.J || c.CN != want.CN {
			t.Errorf("coefficient %d = %+v, want %+v", i, c, want)
		}
	}
	st := tr.StatsSnapshot()
	if st.Received != 6 || st.Duplicates != 2 || st.Late != 1 || st.Retained != 3 {
		t.Errorf("received/duplicates/late/retained = %d/%d/%d/%d, want 6/2/1/3",
			st.Received, st.Duplicates, st.Late, st.Retained)
	}
}

// TestTrackerExecuteLeavesBatchUntouched: the CoeffBatch slice belongs to
// its emitter (the benchmark's layer replay executes the same tuples more
// than once), so Execute must read it only — also when it forwards accepted
// reports, which travel in a slice of their own.
func TestTrackerExecuteLeavesBatchUntouched(t *testing.T) {
	tr := NewTrackerWith(4, 8, 0)
	tr.EnableTrendEmit()
	var coeffs []jaccard.Coefficient
	for a := tagset.Tag(0); a < 50; a++ {
		coeffs = append(coeffs, jaccard.Coefficient{Tags: tagset.New(a%20, a%20+1), J: float64(a) / 50, CN: int64(a)})
	}
	before := make([]jaccard.Coefficient, len(coeffs))
	copy(before, coeffs)
	tuple := coeffBatchTuple(1, coeffs...)
	for run := 0; run < 2; run++ {
		out := newCollector()
		tr.Execute(tuple, out)
		got := tuple.Values[0].(CoeffBatch).Coeffs
		if len(got) != len(before) {
			t.Fatalf("run %d: batch has %d coefficients, had %d", run, len(got), len(before))
		}
		for i := range before {
			if !got[i].Tags.Equal(before[i].Tags) || got[i].J != before[i].J || got[i].CN != before[i].CN {
				t.Fatalf("run %d: coefficient %d = %+v, was %+v", run, i, got[i], before[i])
			}
		}
		for _, b := range trendBatches(out) {
			if len(b.Coeffs) > 0 && &b.Coeffs[0] == &coeffs[0] {
				t.Fatalf("run %d: the TrendBatch aliases the CoeffBatch slice", run)
			}
		}
	}
}

// TestTrackerTrendEmissionLateAndDisabled: late reports (pruned periods)
// never reach the trend stream, and without EnableTrendEmit nothing does.
func TestTrackerTrendEmissionLateAndDisabled(t *testing.T) {
	tr := NewTrackerWith(2, 8, 0)
	tr.EnableTrendEmit()
	tr.SetRetention(1)
	out := newCollector()
	c := func(a tagset.Tag) jaccard.Coefficient {
		return jaccard.Coefficient{Tags: tagset.New(a, a+1), J: 0.5, CN: 5}
	}
	tr.Execute(coeffBatchTuple(1, c(10)), out)
	tr.Execute(coeffBatchTuple(2, c(20)), out) // prunes period 1
	tr.Execute(coeffBatchTuple(1, c(30)), out) // late: dropped, not forwarded
	if got := len(out.byStream(StreamTrend)); got != 2 {
		t.Errorf("trend emissions = %d, want 2 (late report leaked)", got)
	}
	// Execute with a nil collector must not panic even with emission on.
	tr.Execute(coeffBatchTuple(3, c(40)), nil)

	off := NewTrackerWith(2, 8, 0)
	out2 := newCollector()
	off.Execute(coeffBatchTuple(1, c(10)), out2)
	if got := len(out2.byStream(StreamTrend)); got != 0 {
		t.Errorf("disabled tracker emitted %d trend tuples", got)
	}
}

// TestTrendBoltFeedsDetector wires the Trend bolt to a detector directly.
func TestTrendBoltFeedsDetector(t *testing.T) {
	det, err := trend.NewStream(trend.StreamConfig{Alpha: 0.5, MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	bolt := NewTrend(det)
	bolt.Prepare(&storm.TaskContext{})
	feed := func(period int64, j float64) {
		bolt.Execute(storm.Tuple{Stream: StreamTrend, Values: []interface{}{TrendBatch{
			Period: period,
			Coeffs: []jaccard.Coefficient{{Tags: tagset.New(1, 2), J: j, CN: 5}},
		}}}, nil)
	}
	feed(1, 0.2)
	feed(2, 0.8)
	if got := bolt.Observed.Load(); got != 2 {
		t.Errorf("Observed = %d", got)
	}
	if bolt.Detector() != det {
		t.Error("Detector() accessor broken")
	}
	top := det.TopTrends(2, 10)
	if len(top) != 1 || top[0].Predicted != 0.2 || top[0].Observed != 0.8 {
		t.Errorf("detector state after bolt feed = %v", top)
	}
}

// TestTrendKeyStable: fields grouping must route every report of a tagset
// to the same Trend task. The key is the Route the Tracker stamps on each
// sub-batch, so it is checked on what the Tracker emits: across batches and
// values a tagset keeps its task, and the tagsets spread over several.
func TestTrendKeyStable(t *testing.T) {
	const tasks = 4
	tr := NewTrackerWith(4, 8, 0)
	tr.EnableTrendEmit()
	tr.trendTasks = tasks
	out := newCollector()
	for period := int64(1); period <= 3; period++ {
		var cs []jaccard.Coefficient
		for a := tagset.Tag(0); a < 40; a++ {
			cs = append(cs, jaccard.Coefficient{Tags: tagset.New(a, a+3), J: float64(period) / 10, CN: period})
		}
		tr.Execute(coeffBatchTuple(period, cs...), out)
	}
	taskOf := make(map[tagset.Key]uint64)
	used := make(map[uint64]bool)
	for _, tuple := range out.byStream(StreamTrend) {
		key := TrendKey(tuple)
		if key >= tasks {
			t.Fatalf("TrendKey = %d with %d tasks", key, tasks)
		}
		used[key] = true
		for _, c := range tuple.Values[0].(TrendBatch).Coeffs {
			k := c.Tags.Key()
			if prev, seen := taskOf[k]; seen && prev != key {
				t.Errorf("TrendKey differs for the same tagset %v: %d then %d", c.Tags, prev, key)
			}
			taskOf[k] = key
			if want := routeHash(k) % tasks; key != want {
				t.Errorf("tagset %v travels with key %d, its hash says %d", c.Tags, key, want)
			}
		}
	}
	if len(taskOf) != 40 {
		t.Errorf("saw %d tagsets on the trend stream, want 40", len(taskOf))
	}
	if len(used) < 2 {
		t.Errorf("all tagsets share %d Trend task (FNV should separate these)", len(used))
	}
}
