package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/twitgen"
)

// TestSnapshotConcurrentWithPruning hammers Pipeline.Snapshot from several
// goroutines while the concurrent executor streams a retention-bounded run
// (KeepPeriods small enough that periods are pruned mid-flight). Run under
// -race this covers the full read path — Tracker per-period heaps, period
// registry, evicted LRU, disseminator stats, atomic storm counters — and
// asserts the invariants every mid-run snapshot must satisfy.
func TestSnapshotConcurrentWithPruning(t *testing.T) {
	dict := tagset.NewDictionary()
	gcfg := twitgen.Default()
	gcfg.Seed = 11
	gen, err := twitgen.New(gcfg, dict)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.WindowSpan = stream.Minutes(1)
	cfg.ReportEvery = stream.Minutes(1)
	cfg.KeepPeriods = 2
	cfg.EvictedPairs = 256
	cfg.NoSeries = true

	src, stop := StopSource(func() (stream.Document, bool) {
		return gen.Next(), true
	})
	pipe, err := NewPipeline(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	h := pipe.Start()

	const readers = 4
	var wg sync.WaitGroup
	var done atomic.Bool
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastDocs int64
			for !done.Load() {
				s := h.Snapshot(10)
				if len(s.TopK) > 10 {
					t.Errorf("snapshot top-k has %d entries, want <= 10", len(s.TopK))
					return
				}
				for i := 1; i < len(s.TopK); i++ {
					a, b := s.TopK[i-1], s.TopK[i]
					if b.J > a.J {
						t.Errorf("snapshot top-k out of order: J=%g after J=%g", b.J, a.J)
						return
					}
				}
				if len(s.Periods) > cfg.KeepPeriods {
					t.Errorf("snapshot retains %d periods, want <= %d", len(s.Periods), cfg.KeepPeriods)
					return
				}
				if s.DocsProcessed < lastDocs {
					t.Errorf("docs_processed went backwards: %d after %d", s.DocsProcessed, lastDocs)
					return
				}
				lastDocs = s.DocsProcessed
				if tr := s.Tracker; tr.HeapEntries > tr.Shards*tr.TopKBound*tr.RetainedPeriods {
					t.Errorf("tracker heaps hold %d entries over %d shards of bound %d and %d periods",
						tr.HeapEntries, tr.Shards, tr.TopKBound, tr.RetainedPeriods)
					return
				}
			}
		}()
	}

	// Let the run stream until retention has pruned at least one period (so
	// the readers race real evictions), then drain.
	deadline := time.After(120 * time.Second)
	for h.Snapshot(1).Tracker.PrunedPeriods == 0 {
		select {
		case <-deadline:
			stop()
			t.Fatal("no period pruned within 120s")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	stop()
	res := h.Wait()
	done.Store(true)
	wg.Wait()

	// The final snapshot agrees with the drained Result.
	final := h.Snapshot(10)
	if final.DocsProcessed != res.DocsProcessed {
		t.Errorf("final snapshot docs = %d, Result docs = %d", final.DocsProcessed, res.DocsProcessed)
	}
	if final.Tracker.PrunedPeriods < 1 {
		t.Errorf("final pruned periods = %d, want >= 1", final.Tracker.PrunedPeriods)
	}
}
