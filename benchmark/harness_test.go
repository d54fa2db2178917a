package main

import (
	"math"
	"testing"
	"time"

	"repro/benchmark/kit"
	"repro/internal/stream"
)

// The clock may only start on an installed partitioning with the whole gate
// prefix processed, and what the window then does must be the same work
// from run to run: that is what makes two runs comparable.
func TestGateFixesTheWork(t *testing.T) {
	w, err := lookupWorkload("ingest-durable")
	if err != nil {
		t.Fatal(err)
	}
	spec := runSpec{w: w, seed: 1, seconds: 1, setups: 1}

	svc, err := setup(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	s := svc.pipe.Snapshot(1)
	svc.teardown()
	if s.Epoch < 1 {
		t.Errorf("gate released at epoch %d", s.Epoch)
	}
	if s.DocsProcessed != int64(svc.fed) {
		t.Errorf("gate released with %d of %d documents processed", s.DocsProcessed, svc.fed)
	}
	if s.DocsBeforeInstall != kit.PeriodLen+1 {
		t.Errorf("%d documents passed before the partitioning installed, want the first window and its trigger, %d",
			s.DocsBeforeInstall, kit.PeriodLen+1)
	}

	var notified []float64
	for i := 0; i < 2; i++ {
		m, err := measure(spec)
		if err != nil {
			t.Fatal(err)
		}
		if m.failed != 0 {
			t.Errorf("run %d: %d operations failed: %v", i, m.failed, m.problems)
		}
		if got, want := m.final.DocsProcessed, int64(w.streamDocs(spec.seconds)); got != want {
			t.Errorf("run %d processed %d documents, want %d", i, got, want)
		}
		notified = append(notified, float64(m.final.NotifiedDocs))
	}
	if notified[0] == 0 || math.Abs(notified[0]-notified[1])/notified[0] > 0.01 {
		t.Errorf("notified documents differ by more than 1%% between two runs: %v", notified)
	}
}

// periodStream is n periods of one document a virtual second.
func periodStream(periods int) []stream.Document {
	perPeriod := int(kit.ReportEvery / stream.Seconds(1))
	docs := make([]stream.Document, periods*perPeriod)
	for i := range docs {
		docs[i] = stream.Document{ID: uint64(i + 1), Time: stream.Seconds(float64(i))}
	}
	return docs
}

// A closed-loop phase hands over the first document of period q only once
// an alert of period q-creditPeriods has arrived; an open-loop phase never
// waits for one.
func TestClosedLoopWaitsForItsCredit(t *testing.T) {
	docs := periodStream(firstAlertPeriod + creditPeriods + 1)
	first := firstAlertPeriod + creditPeriods // the first period that needs a credit
	f := newFeeder(docs)
	f.release(phase{Upto: len(docs), Measured: true})
	f.end()

	got := make(chan int64, len(docs))
	go func() {
		defer close(got)
		for {
			d, ok := f.next()
			if !ok {
				return
			}
			got <- kit.PeriodOf(d)
		}
	}()
	// drain reads periods until none arrives for a while (or the stream
	// ends) and returns the last one.
	drain := func() (last int64) {
		for {
			select {
			case p, ok := <-got:
				if !ok {
					return last
				}
				last = p
			case <-time.After(100 * time.Millisecond):
				return last
			}
		}
	}
	if last := drain(); last != int64(first)-1 {
		t.Fatalf("without an alert of period %d the feeder got to period %d, want it held before period %d",
			firstAlertPeriod, last, first)
	}
	f.sawAlert(firstAlertPeriod)
	if last := drain(); last != int64(first) {
		t.Errorf("with the alert the stream ended in period %d, want %d", last, first)
	}
	if len(f.starved) != 0 || f.creditWait <= 0 {
		t.Errorf("starved periods %v, credit wait %v; want none and a positive wait", f.starved, f.creditWait)
	}
	if _, ok := f.closedAt[int64(first)-1]; !ok {
		t.Errorf("the hand-over that closed period %d was not stamped", first-1)
	}
}
