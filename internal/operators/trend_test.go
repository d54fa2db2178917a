package operators

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/storm"
	"repro/internal/tagset"
	"repro/internal/topselect"
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
		s := tr.shardOf(topselect.Fold(tagset.New(a, a+1)))
		if s != tr.shardOf(topselect.Fold(tagset.New(10, 11))) && s != tr.shardOf(topselect.Fold(tagset.New(20, 21))) &&
			s != tr.shardOf(topselect.Fold(tagset.New(30, 31))) {
			lateTag = a
		}
	}

	tr.Execute(coeffBatchTuple(1, co(10, 0.5, 3), co(20, 0.5, 5)), nil)
	lateShard := tr.shardOf(topselect.Fold(tagset.New(lateTag, lateTag+1)))
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

// TestTrackerExecuteLeavesBatchUntouched: a Tracker with neither an
// archive nor a Trend feed only reads the batch it is handed (the
// benchmark's layer replay executes the same tuples more than once), even
// when the batch holds reports it rejects, which a compaction would move.
// Trend emission with no collector, as the replay runs it, is no feed.
func TestTrackerExecuteLeavesBatchUntouched(t *testing.T) {
	var coeffs []jaccard.Coefficient
	for a := tagset.Tag(0); a < 50; a++ {
		cn := int64(10) // fresh
		switch {
		case a >= 40:
			cn = 20 // a CN upgrade
		case a >= 20:
			cn = 5 // a duplicate that loses
		}
		coeffs = append(coeffs, jaccard.Coefficient{Tags: tagset.New(a%20, a%20+1), J: float64(a) / 50, CN: cn})
	}
	before := append([]jaccard.Coefficient(nil), coeffs...)
	emitting := NewTrackerWith(4, 8, 0)
	emitting.EnableTrendEmit()
	for name, run := range map[string]func(storm.Tuple){
		"no feed":            func(t storm.Tuple) { NewTrackerWith(4, 8, 0).Execute(t, newCollector()) },
		"emit, no collector": func(t storm.Tuple) { emitting.Execute(t, nil) },
	} {
		tuple := coeffBatchTuple(1, coeffs...)
		for i := 0; i < 2; i++ {
			run(tuple)
			if !reflect.DeepEqual(coeffs, before) {
				t.Fatalf("%s, run %d: the batch changed\n got %v\nwant %v", name, i, coeffs, before)
			}
		}
	}
}

// within reports whether part is a window of whole, capped at its end.
func within(part, whole []jaccard.Coefficient) bool {
	if len(part) == 0 || cap(part) != len(part) {
		return false
	}
	for k := range whole {
		if &whole[k] == &part[0] {
			return k+len(part) <= len(whole)
		}
	}
	return false
}

// TestTrackerCompactsInItsWindow: two Tracker tasks ingest the two
// sub-batches of one flush at once, with trend emission on and four Trend
// tasks. Each compacts its accepted reports into the front of its own
// window and groups them there for the Trend tasks, so every TrendBatch is
// a window of that prefix holding its task's accepted reports in arrival
// order, and nothing outside the prefix is written: -race sees any
// overlap, and the tail past the prefix is left as it was.
func TestTrackerCompactsInItsWindow(t *testing.T) {
	const trendTasks = 4
	var flush []jaccard.Coefficient
	for a := tagset.Tag(0); a < 60; a++ {
		// Every tagset twice, first with the higher CN: the repeat is rejected.
		s := tagset.New(a%30/2, a%30+100)
		flush = append(flush, jaccard.Coefficient{Tags: s, J: float64(a) / 60, CN: int64(100 - a)})
	}
	parts := (&Calculator{trackerTasks: 2}).splitByRoute(flush, foldColumn(flush))
	if len(parts[0]) == 0 || len(parts[1]) == 0 {
		t.Fatalf("the flush did not reach both tasks: %d and %d", len(parts[0]), len(parts[1]))
	}
	before := append([]jaccard.Coefficient(nil), flush...)

	tr := NewTrackerWith(4, 8, 0)
	tr.EnableTrendEmit()
	tr.trendTasks = trendTasks
	outs := [2]*collector{newCollector(), newCollector()}
	var wg sync.WaitGroup
	for g, part := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Execute(storm.Tuple{Stream: StreamCoeff, Values: []interface{}{
				CoeffBatch{Period: 1, Route: uint64(g), Coeffs: part},
			}}, outs[g])
		}()
	}
	wg.Wait()

	lo := 0
	for g, part := range parts {
		old := before[lo : lo+len(part)]
		lo += len(part)
		var accepted int
		want := make(map[uint64][]jaccard.Coefficient) // by Trend task
		seen := make(map[tagset.Key]bool)
		for _, c := range old {
			if k := c.Tags.Key(); !seen[k] {
				seen[k] = true
				accepted++
				r := routeSet(c.Tags) % trendTasks
				want[r] = append(want[r], c)
			}
		}
		if !reflect.DeepEqual(part[accepted:], old[accepted:]) {
			t.Errorf("task %d: the tail past the accepted prefix changed", g)
		}
		batches := trendBatches(outs[g])
		if len(batches) < 2 {
			t.Fatalf("task %d: %d TrendBatches, want the Trend split to reorder", g, len(batches))
		}
		emitted := 0
		for _, b := range batches {
			emitted += len(b.Coeffs)
			if !within(b.Coeffs, part[:accepted]) {
				t.Errorf("task %d: the TrendBatch for Trend task %d is not a window of the accepted prefix", g, b.Route)
			}
			if !reflect.DeepEqual(b.Coeffs, want[b.Route]) {
				t.Errorf("task %d, Trend task %d:\n got %v\nwant %v", g, b.Route, b.Coeffs, want[b.Route])
			}
		}
		if emitted != accepted {
			t.Errorf("task %d emitted %d reports, want %d", g, emitted, accepted)
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
			if want := routeSet(c.Tags) % tasks; key != want {
				t.Errorf("tagset %v travels with key %d, its fold says %d", c.Tags, key, want)
			}
		}
	}
	if len(taskOf) != 40 {
		t.Errorf("saw %d tagsets on the trend stream, want 40", len(taskOf))
	}
	if len(used) < 2 {
		t.Errorf("all tagsets share %d Trend task (their folds should separate these)", len(used))
	}
}
