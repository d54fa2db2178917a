package core

import (
	"testing"

	"repro/internal/flight"
	"repro/internal/partition"
)

// TestFlightTraceSequentialEndToEnd is the trace acceptance test: a
// sequential run (deterministic tuple order) with every document traced
// must yield retained traces whose spans cover the document path —
// spout → partition → disseminate → calculate — in pipeline order with
// non-decreasing start stamps, plus tracker spans on the documents whose
// arrival triggered a calculator flush.
func TestFlightTraceSequentialEndToEnd(t *testing.T) {
	const nDocs = 20000
	docs, _ := shortStream(t, nDocs, 11)
	cfg := fastConfig(partition.DS)
	// Sample=1 traces everything; the huge SlowMS keeps tail retention out
	// of the picture; DoneCap holds the full run so nothing is evicted.
	frec := flight.NewRecorder(flight.Config{Sample: 1, SlowMS: 1 << 40, DoneCap: nDocs})
	cfg.Flight = frec
	pipe, err := NewPipeline(cfg, SliceSource(docs))
	if err != nil {
		t.Fatal(err)
	}
	res := pipe.Run()

	// The drain decides the last windows' traces, which no later document
	// rotates out: every trace is retained and none is left active.
	st := frec.Snapshot()
	if st.DocsSeen != nDocs {
		t.Fatalf("recorder saw %d docs, pipeline processed %d", st.DocsSeen, nDocs)
	}
	if st.KeptSample != nDocs || st.Retained != nDocs || st.Active != 0 {
		t.Fatalf("kept_sample=%d retained=%d active=%d, want %d traces retained and none active", st.KeptSample, st.Retained, st.Active, nDocs)
	}
	if st.LateSpans != 0 {
		t.Errorf("%d spans arrived after their trace finalized in a drained sequential run", st.LateSpans)
	}

	var complete, withTrack int
	for id := uint64(1); id <= nDocs; id++ {
		tr, ok := frec.TraceByID(id)
		if !ok {
			t.Fatalf("trace %d missing", id)
		}
		if tr.Spans[0].Stage != flight.StageSpout {
			t.Fatalf("trace %d: first span is %s, want spout", id, tr.Spans[0].Stage)
		}
		for i, sp := range tr.Spans {
			if sp.End < sp.Start {
				t.Fatalf("trace %d span %s: end %d before start %d", id, sp.Stage, sp.End, sp.Start)
			}
			if sp.Count < 1 {
				t.Fatalf("trace %d span %s: count %d", id, sp.Stage, sp.Count)
			}
			// In a sequential run each stage starts only after the previous
			// stage's tuple was handed over: starts are non-decreasing in
			// pipeline order.
			if i > 0 && sp.Start < tr.Spans[i-1].Start {
				t.Fatalf("trace %d: %s starts at %d before %s at %d",
					id, sp.Stage, sp.Start, tr.Spans[i-1].Stage, tr.Spans[i-1].Start)
			}
		}
		if tr.Complete() {
			complete++
		} else {
			// Incomplete traces are legitimate — bootstrap documents stop at
			// the partitioner, uncovered documents reach the disseminator but
			// notify no calculator — but one that did reach a calculator must
			// have the whole mandatory path behind it.
			for _, sp := range tr.Spans {
				if sp.Stage == flight.StageCalculate {
					t.Errorf("trace %d reached a calculator yet is incomplete: %+v", id, tr.Spans)
					break
				}
			}
		}
		for _, sp := range tr.Spans {
			if sp.Stage == flight.StageTrack {
				withTrack++
				break
			}
		}
	}
	if complete == 0 {
		t.Error("no complete trace in the whole run")
	}
	// Documents after the bootstrap install flow through all four stages;
	// most of the run should be complete traces.
	if complete < (nDocs-int(res.DocsBeforeInstall))/2 {
		t.Errorf("only %d complete traces out of %d post-install docs",
			complete, nDocs-int(res.DocsBeforeInstall))
	}
	if withTrack == 0 {
		t.Error("no trace carries a tracker span: calculator flushes lost their trace ids")
	}

	// Operational events: every repartition the run performed must have
	// left an event, and the ring must surface them in order.
	if res.Repartitions > 0 && frec.EventCount(flight.EventRepartition) == 0 {
		t.Errorf("%d repartitions happened but no repartition event was recorded", res.Repartitions)
	}
	evs := frec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Errorf("events out of order: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// TestFlightTraceConcurrentPipeline runs the concurrent executor with
// sampling on and checks traces survive with merged spans and no data
// races (the -race CI shard runs this package).
func TestFlightTraceConcurrentPipeline(t *testing.T) {
	docs, _ := shortStream(t, 20000, 5)
	cfg := fastConfig(partition.DS)
	cfg.TrackerTasks = 2
	cfg.NotifyBatch = 16
	frec := flight.NewRecorder(flight.Config{Sample: 16, SlowMS: 1 << 40, DoneCap: 4096})
	cfg.Flight = frec
	pipe, err := NewPipeline(cfg, SliceSource(docs))
	if err != nil {
		t.Fatal(err)
	}
	h := pipe.Start()
	res := h.Wait()

	st := frec.Snapshot()
	if st.DocsSeen != 20000 {
		t.Fatalf("recorder saw %d docs, want 20000", st.DocsSeen)
	}
	want := int64((20000-1)/16 + 1)
	if st.KeptSample != want {
		t.Errorf("kept_sample = %d, want %d head-sampled traces", st.KeptSample, want)
	}
	var complete int
	for _, s := range frec.Traces(8192) {
		tr, ok := frec.TraceByID(s.ID)
		if !ok {
			continue // finalized between the list and the lookup
		}
		for _, sp := range tr.Spans {
			if sp.End < sp.Start {
				t.Fatalf("trace %d span %s: end before start", tr.ID, sp.Stage)
			}
		}
		if tr.Complete() {
			complete++
		}
	}
	if complete == 0 {
		// Which cause: rotation finalizing traces before their calculate
		// span lands (late spans), or no partitioning installed before the
		// stream ended (no merge, every document before install).
		t.Errorf("no complete trace under the concurrent executor: late spans %d, dropped full %d; "+
			"uncovered docs %d, docs before install %d; partitionings installed %d (epoch %d)",
			st.LateSpans, st.DroppedFull, res.UncoveredDocs, res.DocsBeforeInstall, res.Merges, res.Epoch)
	}
}
