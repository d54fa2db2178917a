package flight

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// TestNilRecorder: every method must be a safe no-op on a nil receiver,
// because operators thread a possibly-nil *Recorder without guards.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.RecordEvent(EventRepartition, "x")
	if got := r.Events(); got != nil {
		t.Errorf("nil.Events() = %v, want nil", got)
	}
	if got := r.EventCount(EventRepartition); got != 0 {
		t.Errorf("nil.EventCount = %d, want 0", got)
	}
	if id := r.Begin(telemetry.Now()); id != 0 {
		t.Errorf("nil.Begin = %d, want 0", id)
	}
	r.Span(1, StagePartition, 0, 1)
	r.FlushAll()
	if got := r.Traces(0); got != nil {
		t.Errorf("nil.Traces = %v, want nil", got)
	}
	if _, ok := r.TraceByID(1); ok {
		t.Error("nil.TraceByID found a trace")
	}
	if st := r.Snapshot(); st != (Stats{}) {
		t.Errorf("nil.Snapshot = %+v, want zero", st)
	}
}

// TestEventRingOverwrite fills the ring past capacity and checks the
// reader sees exactly the newest window, oldest first, with contiguous
// sequence numbers, while the per-kind counters keep the full totals.
func TestEventRingOverwrite(t *testing.T) {
	r := NewRecorder(Config{Events: 8})
	const total = 20
	for i := 0; i < total; i++ {
		r.RecordEvent(EventCompaction, fmt.Sprintf("pass %d", i))
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	for i, e := range evs {
		want := uint64(total - 8 + 1 + i)
		if e.Seq != want {
			t.Errorf("event[%d].Seq = %d, want %d", i, e.Seq, want)
		}
		if e.Kind != EventCompaction {
			t.Errorf("event[%d].Kind = %q", i, e.Kind)
		}
	}
	if got := r.EventCount(EventCompaction); got != total {
		t.Errorf("EventCount = %d, want %d (counter survives overwrites)", got, total)
	}
	if got := r.Snapshot().EventsRecorded; got != total {
		t.Errorf("Snapshot.EventsRecorded = %d, want %d", got, total)
	}
}

// TestEventRingConcurrent hammers the ring from many writers while a
// reader snapshots it. Run under -race this is the lock-freedom proof:
// no torn reads, every snapshot is a consistent window of whole events.
func TestEventRingConcurrent(t *testing.T) {
	r := NewRecorder(Config{Events: 64})
	const writers, each = 8, 500
	stopRead := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			evs := r.Events()
			for i := 1; i < len(evs); i++ {
				if evs[i].Seq <= evs[i-1].Seq {
					t.Errorf("snapshot out of order: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.RecordEvent(EventThrottleSaturated, fmt.Sprintf("w%d-%d", w, i))
			}
		}(w)
	}
	wg.Wait()
	close(stopRead)
	<-readerDone
	if got := r.EventCount(EventThrottleSaturated); got != writers*each {
		t.Errorf("EventCount = %d, want %d", got, writers*each)
	}
	if got := len(r.Events()); got != 64 {
		t.Errorf("final ring holds %d events, want 64", got)
	}
}

// feedDoc pushes one document through spout..calculate with synthetic
// stamps: each stage takes stageDurNS. Returns the trace id (0: untraced).
func feedDoc(r *Recorder, base int64, stageDurNS int64) uint64 {
	id := r.Begin(base)
	if id == 0 {
		return 0
	}
	at := base
	for _, st := range []string{StagePartition, StageDisseminate, StageCalculate} {
		r.Span(id, st, at, at+stageDurNS)
		at += stageDurNS
	}
	return id
}

// TestHeadSamplingDeterministic: with Sample=N exactly the 1st, N+1st,
// 2N+1st… documents are head-sampled and retained regardless of speed.
func TestHeadSamplingDeterministic(t *testing.T) {
	r := NewRecorder(Config{Sample: 4, SlowMS: 1000})
	base := telemetry.Now()
	var ids []uint64
	for i := 0; i < 12; i++ {
		ids = append(ids, feedDoc(r, base+int64(i)*1000, 10)) // 10ns per stage: fast
	}
	r.FlushAll()

	for i, id := range ids {
		tr, ok := r.TraceByID(id)
		if i%4 == 0 {
			if !ok {
				t.Errorf("doc %d (head-sampled) not retained", id)
				continue
			}
			if !tr.Sampled || tr.Retained != "sample" {
				t.Errorf("doc %d: Sampled=%v Retained=%q, want head sample", id, tr.Sampled, tr.Retained)
			}
		} else if ok {
			t.Errorf("fast unsampled doc %d retained (%q), want discarded", id, tr.Retained)
		}
	}
	st := r.Snapshot()
	if st.KeptSample != 3 || st.Discarded != 9 {
		t.Errorf("kept_sample=%d discarded=%d, want 3 and 9", st.KeptSample, st.Discarded)
	}
}

// TestTailRetentionKeepsSlowDoc is the acceptance check from the issue: a
// deliberately delayed document survives finalization while fast
// unsampled neighbours are discarded.
func TestTailRetentionKeepsSlowDoc(t *testing.T) {
	// Sample=1000 so none of the 10 docs is head-sampled; SlowMS=50 so
	// only the delayed one clears the threshold.
	r := NewRecorder(Config{Sample: 1000, SlowMS: 50, SlowK: 2})
	base := telemetry.Now()
	r.Begin(base) // doc 1 IS head-sampled ((1-1)%1000==0); it plays the control
	var slowID uint64
	for i := 0; i < 10; i++ {
		d := int64(10) // 10ns per stage: far under 50ms
		if i == 5 {
			d = 60 * 1e6 // 60ms per stage: the deliberately delayed document
		}
		id := feedDoc(r, base+int64(i+1)*1000, d)
		if i == 5 {
			slowID = id
		}
	}
	r.FlushAll()

	tr, ok := r.TraceByID(slowID)
	if !ok {
		t.Fatalf("slow doc %d not retained", slowID)
	}
	if tr.Retained != "slow" || tr.Sampled {
		t.Errorf("slow doc: Retained=%q Sampled=%v, want tail-retained slow", tr.Retained, tr.Sampled)
	}
	st := r.Snapshot()
	if st.KeptSlow != 1 {
		t.Errorf("kept_slow = %d, want 1", st.KeptSlow)
	}
	// 11 docs total: 1 head-sampled, 1 slow, 9 fast unsampled discarded.
	if st.KeptSample != 1 || st.Discarded != 9 {
		t.Errorf("kept_sample=%d discarded=%d, want 1 and 9", st.KeptSample, st.Discarded)
	}
}

// TestSlowKBound: more slow docs than SlowK keeps only the K slowest.
func TestSlowKBound(t *testing.T) {
	r := NewRecorder(Config{Sample: 1 << 30, SlowMS: 1, SlowK: 2})
	base := telemetry.Now()
	r.Begin(base) // head-sampled doc 1
	var ids []uint64
	durs := []int64{5e6, 9e6, 3e6, 7e6} // all above 1ms
	for i, d := range durs {
		ids = append(ids, feedDoc(r, base+int64(i+1)*1000, d))
	}
	r.FlushAll()
	// The two slowest are durs[1] (9ms/stage) and durs[3] (7ms/stage).
	for i, id := range ids {
		_, ok := r.TraceByID(id)
		want := i == 1 || i == 3
		if ok != want {
			t.Errorf("slow doc %d (dur %dns/stage): retained=%v, want %v", id, durs[i], ok, want)
		}
	}
}

// TestSpanMerge: repeat observations of one stage keep the first start,
// extend the end and bump the count instead of duplicating spans.
func TestSpanMerge(t *testing.T) {
	r := NewRecorder(Config{Sample: 1})
	base := telemetry.Now()
	id := r.Begin(base)
	r.Span(id, StageDisseminate, base+10, base+20)
	r.Span(id, StageDisseminate, base+15, base+40)
	r.Span(id, StageDisseminate, base+18, base+30)
	tr, ok := r.TraceByID(id)
	if !ok {
		t.Fatal("trace missing")
	}
	var got *Span
	for i := range tr.Spans {
		if tr.Spans[i].Stage == StageDisseminate {
			if got != nil {
				t.Fatal("duplicate disseminate spans; want one merged span")
			}
			got = &tr.Spans[i]
		}
	}
	if got == nil {
		t.Fatal("no disseminate span")
	}
	if got.Start != base+10 || got.End != base+40 || got.Count != 3 {
		t.Errorf("merged span = start+%d end+%d count %d, want +10 +40 3",
			got.Start-base, got.End-base, got.Count)
	}
}

// TestSpanOrderingAndCompleteness: TraceByID returns spans in pipeline
// order and Complete flips once spout..calculate are all present.
func TestSpanOrderingAndCompleteness(t *testing.T) {
	r := NewRecorder(Config{Sample: 1})
	base := telemetry.Now()
	id := r.Begin(base)
	// Record out of pipeline order on purpose.
	r.Span(id, StageCalculate, base+30, base+40)
	r.Span(id, StagePartition, base+10, base+15)
	tr, _ := r.TraceByID(id)
	if tr.Complete() {
		t.Error("trace complete without a disseminate span")
	}
	r.Span(id, StageDisseminate, base+16, base+25)
	r.Span(id, StageTrack, base+41, base+50)
	tr, _ = r.TraceByID(id)
	if !tr.Complete() {
		t.Error("trace with spout..calculate spans not complete")
	}
	want := []string{StageSpout, StagePartition, StageDisseminate, StageCalculate, StageTrack}
	if len(tr.Spans) != len(want) {
		t.Fatalf("got %d spans, want %d", len(tr.Spans), len(want))
	}
	for i, st := range want {
		if tr.Spans[i].Stage != st {
			t.Errorf("span[%d] = %s, want %s", i, tr.Spans[i].Stage, st)
		}
		if i > 0 && tr.Spans[i].Start < tr.Spans[i-1].Start {
			t.Errorf("span starts not monotone at %d: %d < %d", i, tr.Spans[i].Start, tr.Spans[i-1].Start)
		}
	}
}

// TestLateSpanCounted: spans for a finalized (or never-traced) id land in
// the late-spans counter instead of resurrecting the trace.
func TestLateSpanCounted(t *testing.T) {
	r := NewRecorder(Config{Sample: 1})
	base := telemetry.Now()
	id := r.Begin(base)
	r.FlushAll()
	r.Span(id, StageTrack, base+10, base+20)
	if got := r.Snapshot().LateSpans; got != 1 {
		t.Errorf("late spans = %d, want 1", got)
	}
	tr, ok := r.TraceByID(id)
	if !ok {
		t.Fatal("finalized sampled trace missing from done store")
	}
	for _, s := range tr.Spans {
		if s.Stage == StageTrack {
			t.Error("late span reached the finalized trace")
		}
	}
}

// TestWindowRotation: with Window=4 the verdict for window w's traces
// falls when a document of window w+2 arrives (one-window grace), without
// any FlushAll.
func TestWindowRotation(t *testing.T) {
	r := NewRecorder(Config{Sample: 4, Window: 4, SlowMS: 1000})
	base := telemetry.Now()
	// Docs 1..4 fill window 0; docs 5..8 window 1. Nothing finalizes yet.
	for i := 0; i < 8; i++ {
		feedDoc(r, base+int64(i)*1000, 10)
	}
	if st := r.Snapshot(); st.KeptSample+st.Discarded != 0 {
		t.Fatalf("finalized %d traces before window 2 opened", st.KeptSample+st.Discarded)
	}
	// Doc 9 opens window 2: window 0 (ids 1..4) is decided.
	feedDoc(r, base+9000, 10)
	st := r.Snapshot()
	if st.KeptSample != 1 || st.Discarded != 3 {
		t.Errorf("after rotation: kept_sample=%d discarded=%d, want 1 and 3 (ids 1..4)", st.KeptSample, st.Discarded)
	}
	if _, ok := r.TraceByID(5); !ok {
		t.Error("window-1 trace finalized too early (grace window violated)")
	}
}

// TestActiveCapSheds: when the provisional table is full, unsampled
// documents go untraced (Begin returns 0) but head-sampled ones still get
// a slot.
func TestActiveCapSheds(t *testing.T) {
	r := NewRecorder(Config{Sample: 4, ActiveCap: 2, Window: 1 << 20})
	base := telemetry.Now()
	got := make([]uint64, 0, 8)
	for i := 0; i < 8; i++ {
		got = append(got, r.Begin(base+int64(i)))
	}
	// Doc 1 (sampled) and doc 2 fill the table; docs 3,4 (unsampled) are
	// shed; doc 5 is head-sampled so it bypasses the cap.
	if got[0] == 0 || got[1] == 0 {
		t.Errorf("first two docs refused a slot: %v", got)
	}
	if got[2] != 0 || got[3] != 0 {
		t.Errorf("unsampled docs traced past ActiveCap: %v", got)
	}
	if got[4] == 0 {
		t.Errorf("head-sampled doc 5 refused a slot: %v", got)
	}
	if st := r.Snapshot(); st.DroppedFull == 0 {
		t.Error("DroppedFull not counted")
	}
}

// TestDoneCapFIFO: the retained store is bounded and evicts oldest-first.
func TestDoneCapFIFO(t *testing.T) {
	r := NewRecorder(Config{Sample: 1, DoneCap: 3})
	base := telemetry.Now()
	for i := 0; i < 5; i++ {
		r.Begin(base + int64(i))
		r.FlushAll()
	}
	if st := r.Snapshot(); st.Retained != 3 {
		t.Errorf("retained = %d, want DoneCap 3", st.Retained)
	}
	if _, ok := r.TraceByID(1); ok {
		t.Error("oldest trace survived past DoneCap")
	}
	if _, ok := r.TraceByID(5); !ok {
		t.Error("newest trace missing")
	}
	if got := len(r.Traces(0)); got != 3 {
		t.Errorf("Traces lists %d entries, want 3", got)
	}
}

// TestSamplingDisabled: Sample<=0 turns tracing off entirely while the
// event ring keeps working.
func TestSamplingDisabled(t *testing.T) {
	r := NewRecorder(Config{Sample: 0})
	if id := r.Begin(telemetry.Now()); id != 0 {
		t.Errorf("Begin = %d with sampling off, want 0", id)
	}
	r.RecordEvent(EventArchiveError, "boom")
	if got := r.EventCount(EventArchiveError); got != 1 {
		t.Errorf("event ring dead with sampling off: count %d", got)
	}
}
