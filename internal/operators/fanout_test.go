package operators

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/partition"
	"repro/internal/storm"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/trend"
)

// scriptedSpout replays a fixed tuple sequence, one per NextTuple call.
type scriptedSpout struct {
	tuples []storm.Tuple
	i      int
}

func (s *scriptedSpout) Open(*storm.TaskContext) {}
func (s *scriptedSpout) NextTuple(out storm.Collector) bool {
	if s.i >= len(s.tuples) {
		return false
	}
	out.Emit(s.tuples[s.i])
	s.i++
	return true
}

// fanoutPartitions builds four overlapping partitions over tags 0..29, so
// many pairs are replicated across Calculators and the Tracker's duplicate
// path is exercised.
func fanoutPartitions() []partition.Partition {
	ranges := [][2]int{{0, 9}, {7, 16}, {14, 23}, {21, 29}}
	parts := make([]partition.Partition, len(ranges))
	for i, r := range ranges {
		var tags []tagset.Tag
		for tg := r[0]; tg <= r[1]; tg++ {
			tags = append(tags, tagset.Tag(tg))
		}
		if i == len(ranges)-1 {
			tags = append(tags, 0, 1) // wrap: the last partition overlaps the first
		}
		parts[i] = partition.Partition{Tags: tagset.New(tags...)}
	}
	return parts
}

// fanoutScript scripts one partition install followed by a deterministic
// document stream spanning several reporting periods.
func fanoutScript(nDocs int, seed int64) []storm.Tuple {
	tuples := []storm.Tuple{{Stream: StreamPartitions, Values: []interface{}{PartitionsMsg{
		Epoch: 1, Parts: fanoutPartitions(), Quality: partition.Quality{AvgCom: 1, MaxLoad: 0.5},
	}}}}
	rng := rand.New(rand.NewSource(seed))
	var tm stream.Millis
	for i := 0; i < nDocs; i++ {
		tm += stream.Millis(rng.Intn(20))
		n := 2 + rng.Intn(3)
		tags := make([]tagset.Tag, n)
		for j := range tags {
			tags[j] = tagset.Tag(rng.Intn(30))
		}
		tuples = append(tuples, storm.Tuple{Stream: StreamDoc, Values: []interface{}{
			DocMsg{Time: tm, Tags: tagset.New(tags...)},
		}})
	}
	return tuples
}

type fanoutRun struct {
	tracker  *Tracker
	det      *trend.Stream
	perTask  []int64 // tuples received per Tracker task
	received int64
	dups     int64
}

// runFanout executes the Disseminator→Calculator→Tracker→Trend segment over
// the scripted stream with fixed partitions, so the dataflow is fully
// deterministic under both executors and any fan-out configuration: fields
// grouping keeps every tagset on one Tracker task, and direct grouping
// keeps every Calculator's notification order.
func runFanout(t *testing.T, tuples []storm.Tuple, trackerTasks, notifyBatch int, concurrent bool) fanoutRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.K = 4
	cfg.ReportEvery = 5000
	cfg.WindowSpan = 1 << 40 // partitions arrive scripted; never bootstrap
	cfg.StatsEvery = 1 << 30 // no mid-run quality evaluation
	cfg.NotifyBatch = notifyBatch

	tr := NewTrackerWith(8, 32, 0)
	tr.EnableTrendEmit()
	det, err := trend.NewStream(trend.StreamConfig{Alpha: 0.5, MinSupport: 1, TopK: 16})
	if err != nil {
		t.Fatal(err)
	}

	b := storm.NewBuilder()
	b.Spout("source", func() storm.Spout { return &scriptedSpout{tuples: tuples} }, 1)
	b.Bolt("disseminator", func() storm.Bolt { return NewDisseminator(cfg) }, 1).Shuffle("source")
	b.Bolt("calculator", func() storm.Bolt { return NewCalculator(cfg) }, cfg.K).Direct("disseminator")
	b.Bolt("tracker", func() storm.Bolt { return tr }, trackerTasks).Fields("calculator", CoeffKey)
	b.Bolt("trend", func() storm.Bolt { return NewTrend(det) }, 2).Fields("tracker", TrendKey)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var st *storm.Stats
	if concurrent {
		st = topo.RunConcurrent()
	} else {
		st = topo.RunSequential()
	}
	run := fanoutRun{tracker: tr, det: det, perTask: st.TaskReceived(topo, "tracker")}
	ts := tr.StatsSnapshot()
	run.received, run.dups = ts.Received, ts.Duplicates
	return run
}

// sameFanoutState requires two runs to have converged to identical Tracker
// contents and identical trend state.
func sameFanoutState(t *testing.T, label string, got, want fanoutRun) {
	t.Helper()
	gp, wp := got.tracker.Periods(), want.tracker.Periods()
	if len(gp) != len(wp) {
		t.Fatalf("%s: periods %v, want %v", label, gp, wp)
	}
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("%s: periods %v, want %v", label, gp, wp)
		}
	}
	for _, p := range wp {
		sameCoefficients(t, fmt.Sprintf("%s: Report(%d)", label, p),
			got.tracker.Report(p), want.tracker.Report(p))
	}
	if got.received != want.received || got.dups != want.dups {
		t.Errorf("%s: received/dups = %d/%d, want %d/%d",
			label, got.received, got.dups, want.received, want.dups)
	}

	if g, w := got.det.Tracked(), want.det.Tracked(); g != w {
		t.Errorf("%s: tracked predictors = %d, want %d", label, g, w)
	}
	for _, p := range wp {
		ge, we := got.det.TopTrends(p, 16), want.det.TopTrends(p, 16)
		if len(ge) != len(we) {
			t.Fatalf("%s: TopTrends(%d) has %d events, want %d", label, p, len(ge), len(we))
		}
		for i := range we {
			g, w := ge[i], we[i]
			if g.Tags.Key() != w.Tags.Key() || g.Score != w.Score ||
				g.Predicted != w.Predicted || g.Observed != w.Observed || g.CN != w.CN {
				t.Fatalf("%s: TopTrends(%d)[%d] = %+v, want %+v", label, p, i, g, w)
			}
		}
	}
}

// TestTrackerFanoutDifferential proves the hot-path fan-out configuration
// invisible to results: with the same input, every combination of Tracker
// parallelism (1 or 4 tasks sharing one Tracker), notification batching
// (per-document or every 64 documents) and executor (sequential FIFO or
// concurrent) converges to the same deduplicated Tracker coefficients and
// the same trend rankings as the all-defaults sequential run.
func TestTrackerFanoutDifferential(t *testing.T) {
	tuples := fanoutScript(4000, 7)
	base := runFanout(t, tuples, 1, 0, false)
	if st := base.tracker.StatsSnapshot(); st.Retained == 0 || st.Duplicates == 0 {
		t.Fatalf("baseline run not representative: %+v", st)
	}

	variants := []struct {
		name         string
		tasks, batch int
		concurrent   bool
	}{
		{"seq-tasks4-batch64", 4, 64, false},
		{"con-tasks1-batch0", 1, 0, true},
		{"con-tasks4-batch0", 4, 0, true},
		{"con-tasks1-batch64", 1, 64, true},
		{"con-tasks4-batch64", 4, 64, true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			got := runFanout(t, tuples, v.tasks, v.batch, v.concurrent)
			sameFanoutState(t, v.name, got, base)
			if v.tasks > 1 {
				busy := 0
				for _, n := range got.perTask {
					if n > 0 {
						busy++
					}
				}
				if busy < 2 {
					t.Errorf("only %d of %d Tracker tasks received tuples", busy, v.tasks)
				}
			}
		})
	}
}

// TestCoeffKeyRoutesBatchesAndSinglesAlike pins the routing contract: a
// batch of one, routed by its tagset's own hash, must land on the same
// Tracker task as the Calculator's sub-batch carrying that tagset, for any
// task count.
func TestCoeffKeyRoutesBatchesAndSinglesAlike(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tasks := range []int{2, 4, 8} {
		for i := 0; i < 200; i++ {
			a := tagset.Tag(rng.Intn(100))
			set := tagset.New(a, a+1+tagset.Tag(rng.Intn(5)))
			c := jaccard.Coefficient{Tags: set, J: 0.5, CN: 3}
			single := storm.Tuple{Stream: StreamCoeff, Values: []interface{}{CoeffBatch{
				Period: 1, Route: routeSet(set) % uint64(tasks), Coeffs: []jaccard.Coefficient{c},
			}}}
			// The sub-batch of a flush that also holds other tagsets.
			flush := []jaccard.Coefficient{c}
			for j := 0; j < 8; j++ {
				b := tagset.Tag(rng.Intn(100))
				flush = append(flush, jaccard.Coefficient{Tags: tagset.New(b, b+7), J: 0.1, CN: 1})
			}
			for g, part := range (&Calculator{trackerTasks: tasks}).splitByRoute(flush, foldColumn(flush)) {
				if len(part) == 0 || !part[0].Tags.Equal(set) {
					continue
				}
				batch := storm.Tuple{Stream: StreamCoeff, Values: []interface{}{CoeffBatch{
					Period: 1, Route: uint64(g), Coeffs: part,
				}}}
				if CoeffKey(single) != CoeffKey(batch) {
					t.Fatalf("tasks=%d: %v routes single to %d, batch to %d",
						tasks, set, CoeffKey(single), CoeffKey(batch))
				}
			}
		}
	}
}

// TestCalculatorSubBatchedFlush: with Tracker parallelism the flush splits
// into per-task sub-batches whose union is exactly the single-task batch,
// every coefficient routed by the fold of its tags.
func TestCalculatorSubBatchedFlush(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReportEvery = 1000
	single, split := NewCalculator(cfg), NewCalculator(cfg)
	single.Prepare(&storm.TaskContext{})
	split.Prepare(&storm.TaskContext{})
	split.trackerTasks = 3

	outS, outM := newCollector(), newCollector()
	for _, pair := range []struct {
		c   *Calculator
		out *collector
	}{{single, outS}, {split, outM}} {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 400; i++ {
			a := tagset.Tag(rng.Intn(20))
			b := a + 1 + tagset.Tag(rng.Intn(4))
			pair.c.Execute(notifyTuple(NotifyMsg{Time: stream.Millis(i), Tags: tagset.New(a, b)}), pair.out)
		}
		// Crossing the boundary flushes period 1.
		pair.c.Execute(notifyTuple(NotifyMsg{Time: 1500, Tags: tagset.New(1, 2)}), pair.out)
	}

	want := outS.byStream(StreamCoeff)
	if len(want) != 1 {
		t.Fatalf("single-task flush emitted %d tuples", len(want))
	}
	wantCoeffs := append([]jaccard.Coefficient(nil), want[0].Values[0].(CoeffBatch).Coeffs...)
	sortCoefficients(wantCoeffs)

	sub := outM.byStream(StreamCoeff)
	if len(sub) < 2 {
		t.Fatalf("split flush emitted %d sub-batches, want >= 2", len(sub))
	}
	var union []jaccard.Coefficient
	for _, tp := range sub {
		bt := tp.Values[0].(CoeffBatch)
		if bt.Period != 1 {
			t.Errorf("sub-batch period = %d", bt.Period)
		}
		if bt.Route >= 3 {
			t.Errorf("sub-batch route = %d with 3 tasks", bt.Route)
		}
		for _, co := range bt.Coeffs {
			if g := routeSet(co.Tags) % 3; g != bt.Route {
				t.Errorf("%v in sub-batch %d, its fold routes to %d", co.Tags, bt.Route, g)
			}
			union = append(union, co)
		}
	}
	sortCoefficients(union)
	sameCoefficients(t, "sub-batch union", union, wantCoeffs)
}

// TestCalculatorIdleGapJump: a large timestamp gap must flush the finished
// period once and jump straight to the period containing the new message —
// the old one-ReportEvery-per-iteration loop would burn one allocation and
// one no-op flush per empty period (a billion of them here).
func TestCalculatorIdleGapJump(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReportEvery = 1000
	c := NewCalculator(cfg)
	c.Prepare(&storm.TaskContext{})
	out := newCollector()
	notify := func(tm stream.Millis) {
		c.Execute(notifyTuple(NotifyMsg{Time: tm, Tags: tagset.New(1, 2)}), out)
	}
	notify(100)
	notify(200)
	const far = stream.Millis(1) << 40 // ~10^9 empty periods later
	notify(far)
	coeffs := out.byStream(StreamCoeff)
	if len(coeffs) != 1 {
		t.Fatalf("emitted %d coeff tuples across the gap, want 1", len(coeffs))
	}
	if got := coeffs[0].Values[0].(CoeffBatch).Period; got != 1 {
		t.Errorf("flushed period = %d, want 1", got)
	}
	if c.Reports != 1 {
		t.Errorf("Reports = %d after the gap, want 1", c.Reports)
	}
	c.Cleanup(out)
	all := out.byStream(StreamCoeff)
	if len(all) != 2 {
		t.Fatalf("after cleanup emitted %d tuples, want 2", len(all))
	}
	wantPeriod := int64(alignUp(far, cfg.ReportEvery) / cfg.ReportEvery)
	if got := all[1].Values[0].(CoeffBatch).Period; got != wantPeriod {
		t.Errorf("final period = %d, want %d", got, wantPeriod)
	}
}

// TestCalculatorAcceptsNotifyBatch: a batch is observed in order, so a
// period boundary crossed mid-batch flushes exactly the messages before it.
func TestCalculatorAcceptsNotifyBatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReportEvery = 1000
	c := NewCalculator(cfg)
	c.Prepare(&storm.TaskContext{})
	out := newCollector()

	c.Execute(notifyTuple(
		NotifyMsg{Time: 100, Tags: tagset.New(1, 2)},
		NotifyMsg{Time: 200, Tags: tagset.New(1, 2)},
		NotifyMsg{Time: 300, Tags: tagset.New(1, 3)},
		NotifyMsg{Time: 1500, Tags: tagset.New(1, 2)}, // crosses the boundary mid-batch
	), out)

	if c.Observed != 4 {
		t.Errorf("Observed = %d, want 4", c.Observed)
	}
	flushes := out.byStream(StreamCoeff)
	if len(flushes) != 1 {
		t.Fatalf("flushes = %d, want 1 (period 1, cut at the fourth message)", len(flushes))
	}
	batch := flushes[0].Values[0].(CoeffBatch)
	if batch.Period != 1 {
		t.Errorf("flushed period = %d, want 1", batch.Period)
	}
	// Period 1 saw {1,2} twice and {1,3} once: J({1,2}) = 2/3 with CN 2.
	// Had the fourth message been counted before the flush it would be 3/4.
	var got jaccard.Coefficient
	for _, co := range batch.Coeffs {
		if co.Tags.Equal(tagset.New(1, 2)) {
			got = co
		}
	}
	if got.CN != 2 || math.Abs(got.J-2.0/3) > 1e-12 {
		t.Errorf("J({1,2}) = %v (CN %d), want 2/3 (CN 2)", got.J, got.CN)
	}
}

// TestDisseminatorNotifyBatching pins the buffering contract: nothing ships
// until NotifyBatch documents were notified, flushes preserve per-Calculator
// order, the logical counters are unaffected, and partial buffers flush on
// partition install and Cleanup.
func TestDisseminatorNotifyBatching(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 2
	cfg.NotifyBatch = 2
	d, out := buildDissem(cfg)
	installPartitions(d, out,
		partition.Partition{Tags: tagset.New(1, 2)},
		partition.Partition{Tags: tagset.New(2, 3)},
	)

	d.Execute(docTuple(10, 1, 2), out) // calc0 gets {1,2}, calc1 gets {2}
	if len(out.direct[0]) != 0 || len(out.direct[1]) != 0 {
		t.Fatal("notifications shipped before the batch filled")
	}
	if d.Stats.Notifications != 2 || d.Stats.NotifiedDocs != 1 {
		t.Errorf("buffering distorted counters: %+v", d.Stats)
	}

	d.Execute(docTuple(20, 1), out) // second notified document: flush
	if len(out.direct[0]) != 1 || len(out.direct[1]) != 1 {
		t.Fatalf("flush deliveries: calc0=%d calc1=%d, want 1 each",
			len(out.direct[0]), len(out.direct[1]))
	}
	nb := out.direct[0][0].Values[0].(NotifyBatch)
	if len(nb.Msgs) != 2 || nb.Msgs[0].Time != 10 || nb.Msgs[1].Time != 20 {
		t.Fatalf("calc0 batch out of order: %+v", nb.Msgs)
	}
	if !nb.Msgs[0].Tags.Equal(tagset.New(1, 2)) || !nb.Msgs[1].Tags.Equal(tagset.New(1)) {
		t.Errorf("calc0 batch subsets: %+v", nb.Msgs)
	}
	if got := out.direct[1][0].Values[0].(NotifyBatch); len(got.Msgs) != 1 || !got.Msgs[0].Tags.Equal(tagset.New(2)) {
		t.Errorf("calc1 batch: %+v", got.Msgs)
	}

	// A partition install flushes the partial buffer first.
	d.Execute(docTuple(30, 3), out) // buffered towards calc1
	installPartitions(d, out,
		partition.Partition{Tags: tagset.New(1, 2)},
		partition.Partition{Tags: tagset.New(2, 3)},
	)
	if len(out.direct[1]) != 2 {
		t.Fatalf("install did not flush the buffer: calc1 deliveries = %d", len(out.direct[1]))
	}
	if got := out.direct[1][1].Values[0].(NotifyBatch); len(got.Msgs) != 1 || got.Msgs[0].Time != 30 {
		t.Errorf("post-install batch: %+v", got.Msgs)
	}

	// Cleanup flushes what is left.
	d.Execute(docTuple(40, 1), out) // buffered towards calc0
	d.Cleanup(out)
	if len(out.direct[0]) != 2 {
		t.Fatalf("Cleanup did not flush the buffer: calc0 deliveries = %d", len(out.direct[0]))
	}
	if got := out.direct[0][1].Values[0].(NotifyBatch); len(got.Msgs) != 1 || got.Msgs[0].Time != 40 {
		t.Errorf("cleanup batch: %+v", got.Msgs)
	}
}

// bufSeen is the Tracker bolt with a record of the report buffers its
// batches carried.
type bufSeen struct {
	*Tracker
	mu   sync.Mutex
	bufs map[*reportBuf]bool
}

func (b *bufSeen) Execute(t storm.Tuple, out storm.Collector) {
	b.mu.Lock()
	b.bufs[t.Values[0].(CoeffBatch).buf] = true
	b.mu.Unlock()
	b.Tracker.Execute(t, out)
}

// TestReportBuffersComeBack runs the Calculator→Tracker→Trend segment, with
// four Tracker tasks, two Trend tasks and retention of two periods so that
// late batches occur, under both executors, and requires every report
// buffer a batch carried to be back on its Calculator's free list once the
// run has drained: the Calculators, the Tracker on every path and the
// Trend tasks release each reference they hold, exactly once. The
// Calculators must also have reused buffers, flushing more periods than
// they made buffers.
func TestReportBuffersComeBack(t *testing.T) {
	tuples := fanoutScript(4000, 7)
	for _, concurrent := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.K = 4
		cfg.ReportEvery = 5000
		cfg.WindowSpan = 1 << 40
		cfg.StatsEvery = 1 << 30
		cfg.NotifyBatch = 64
		tr := &bufSeen{Tracker: NewTrackerWith(8, 32, 0), bufs: map[*reportBuf]bool{}}
		tr.SetRetention(2)
		tr.EnableTrendEmit()
		det, err := trend.NewStream(trend.StreamConfig{Alpha: 0.5, MinSupport: 1, TopK: 16})
		if err != nil {
			t.Fatal(err)
		}
		var calcs []*Calculator
		b := storm.NewBuilder()
		b.Spout("source", func() storm.Spout { return &scriptedSpout{tuples: tuples} }, 1)
		b.Bolt("disseminator", func() storm.Bolt { return NewDisseminator(cfg) }, 1).Shuffle("source")
		b.Bolt("calculator", func() storm.Bolt {
			c := NewCalculator(cfg)
			calcs = append(calcs, c)
			return c
		}, cfg.K).Direct("disseminator")
		b.Bolt("tracker", func() storm.Bolt { return tr }, 4).Fields("calculator", CoeffKey)
		b.Bolt("trend", func() storm.Bolt { return NewTrend(det) }, 2).Fields("tracker", TrendKey)
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if concurrent {
			topo.RunConcurrent()
		} else {
			topo.RunSequential()
		}

		free, flushes := map[*reportBuf]bool{}, 0
		for _, c := range calcs {
			for _, buf := range c.reports.free {
				free[buf] = true
			}
			flushes += c.Reports
		}
		for buf := range tr.bufs {
			if !free[buf] {
				t.Errorf("concurrent=%v: a report buffer never came back (%d references held)", concurrent, buf.refs.Load())
			}
		}
		if len(free) != len(tr.bufs) {
			t.Errorf("concurrent=%v: %d buffers on the free lists, %d carried by batches", concurrent, len(free), len(tr.bufs))
		}
		if flushes <= len(tr.bufs) {
			t.Errorf("concurrent=%v: %d flushes made %d buffers: none was reused", concurrent, flushes, len(tr.bufs))
		}
		if tr.StatsSnapshot().PrunedPeriods == 0 || det.Tracked() == 0 {
			t.Fatalf("concurrent=%v: run not representative: nothing pruned or nothing tracked", concurrent)
		}
	}
}
