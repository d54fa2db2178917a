package operators

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/storm"
	"repro/internal/tagset"
)

// coeffTuple wraps a coefficient report as the storm tuple the Tracker
// consumes: a batch of one.
func coeffTuple(period int64, tags tagset.Set, j float64, cn int64) storm.Tuple {
	return storm.Tuple{Stream: StreamCoeff, Values: []interface{}{CoeffBatch{
		Period: period,
		Coeffs: []jaccard.Coefficient{{Tags: tags, J: j, CN: cn}},
	}}}
}

// rankedOK fails the test (via Errorf, safe from any goroutine) and
// returns false if out is not ordered by the top-k ranking (descending J,
// then descending CN, then the tagset key).
func rankedOK(t *testing.T, out []jaccard.Coefficient) bool {
	t.Helper()
	for i := 1; i < len(out); i++ {
		if coeffBefore(out[i], out[i-1]) {
			t.Errorf("result out of order at %d: %+v before %+v", i, out[i], out[i-1])
			return false
		}
	}
	return true
}

// TestTrackerConcurrentStress hammers the sharded Tracker from several
// reporting goroutines while several reader goroutines take top-k views,
// point lookups, per-period reports and stats snapshots — all while the
// advancing reporting period continuously trips retention pruning. Run
// under -race this exercises the shard locking discipline; the assertions
// check the structural invariants every mid-flight read must satisfy:
// top-k results are internally sorted and within the requested bound, the
// retained period set respects the retention limit, and the maintained
// heaps never exceed shards x bound x retained periods entries.
func TestTrackerConcurrentStress(t *testing.T) {
	const (
		shards    = 8
		bound     = 32
		retention = 4
		reporters = 6
		readers   = 4
	)
	iters := 20000
	if testing.Short() {
		iters = 4000
	}

	tr := NewTrackerWith(shards, 8, 512)
	tr.SetRetention(retention)

	var wg sync.WaitGroup
	var done atomic.Bool
	for r := 0; r < reporters; r++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(id))
			for i := 0; i < iters; i++ {
				// Periods advance with progress so pruning keeps firing;
				// occasionally report an older (possibly pruned) period.
				period := int64(1 + i/(iters/40+1))
				if rng.Intn(16) == 0 && period > 2 {
					period -= int64(rng.Intn(3))
				}
				a := tagset.Tag(rng.Intn(64))
				b := a + 1 + tagset.Tag(rng.Intn(8))
				j := float64(rng.Intn(32)+1) / 32
				cn := int64(rng.Intn(9) + 1)
				tr.Execute(coeffTuple(period, tagset.New(a, b), j, cn), nil)
			}
		}(int64(r + 1))
	}

	// One goroutine raises the maintained bound from below the readers' k
	// to above it once half the reports are in, so TopK races real heap
	// rebuilds and shards raised at different instants: each shard decides
	// under its own lock whether its heaps cover k.
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for tr.Received.Load() < reporters*int64(iters)/2 && !done.Load() {
			runtime.Gosched()
		}
		tr.EnsureTopKBound(bound)
	}()
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(id int64) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(1000 + id))
			for !done.Load() {
				top := tr.TopK(16)
				if len(top) > 16 {
					t.Errorf("TopK(16) returned %d entries", len(top))
					return
				}
				if !rankedOK(t, top) {
					return
				}

				ps := tr.Periods()
				if len(ps) > retention {
					t.Errorf("Periods() = %v exceeds retention %d", ps, retention)
					return
				}
				for i := 1; i < len(ps); i++ {
					if ps[i] <= ps[i-1] {
						t.Errorf("Periods() not ascending: %v", ps)
						return
					}
				}
				if len(ps) > 0 && !rankedOK(t, tr.Report(ps[len(ps)-1])) {
					return
				}

				a := tagset.Tag(rng.Intn(64))
				tr.Lookup(tagset.New(a, a+1).Key())

				st := tr.StatsSnapshot()
				if limit := st.Shards * st.TopKBound * st.RetainedPeriods; st.HeapEntries > limit {
					t.Errorf("heap entries %d exceed shards*bound*periods %d", st.HeapEntries, limit)
					return
				}
				if st.HeapEntries > st.Retained {
					t.Errorf("heap entries %d exceed retained %d", st.HeapEntries, st.Retained)
					return
				}
			}
		}(int64(r))
	}

	wg.Wait()
	done.Store(true)
	readWG.Wait()

	// Quiescent now: the incrementally maintained answer must agree exactly
	// with a full scan of the retained coefficients.
	got := tr.TopK(16)
	want := tr.topKScan(16)
	if len(got) != len(want) {
		t.Fatalf("TopK(16) = %d entries, scan gives %d", len(got), len(want))
	}
	for i := range want {
		if got[i].J != want[i].J || got[i].CN != want[i].CN || got[i].Tags.Key() != want[i].Tags.Key() {
			t.Fatalf("TopK[%d] = %+v, scan gives %+v", i, got[i], want[i])
		}
	}

	st := tr.StatsSnapshot()
	if st.TopKBound != bound {
		t.Errorf("topk bound = %d after the raise, want %d", st.TopKBound, bound)
	}
	if st.Received != int64(reporters*iters) {
		t.Errorf("received %d reports, want %d", st.Received, reporters*iters)
	}
	if st.PrunedPeriods == 0 {
		t.Error("stress run never pruned a period; retention was not exercised")
	}
}

// TestTrackerEvictedLRU pins the retention/LRU hand-off deterministically:
// pairs whose periods are pruned become answerable through LookupDetail
// with the evicted flag, the newest pruned value wins per pair, and the
// LRU capacity bounds how many pruned pairs are remembered.
func TestTrackerEvictedLRU(t *testing.T) {
	tr := NewTrackerWith(4, 8, 2)
	tr.SetRetention(1)

	pair := func(a tagset.Tag) tagset.Set { return tagset.New(a, a+1) }
	tr.Execute(coeffTuple(1, pair(10), 0.9, 5), nil)
	tr.Execute(coeffTuple(1, pair(20), 0.8, 4), nil)

	// Opening period 2 prunes period 1: both pairs move to the LRU.
	tr.Execute(coeffTuple(2, pair(30), 0.7, 3), nil)

	c, period, evicted, ok := tr.LookupDetail(pair(10).Key())
	if !ok || !evicted || period != 1 || c.J != 0.9 || c.CN != 5 {
		t.Fatalf("LookupDetail(10,11) = %+v period=%d evicted=%v ok=%v", c, period, evicted, ok)
	}
	if _, _, evicted, ok := tr.LookupDetail(pair(30).Key()); !ok || evicted {
		t.Fatalf("retained pair reported evicted=%v ok=%v", evicted, ok)
	}

	// Pruning period 2 re-evicts pair 30; capacity 2 drops the
	// least-recently-touched entry (pair 20 — pair 10 was just looked up).
	tr.Execute(coeffTuple(3, pair(40), 0.6, 2), nil)
	if _, _, _, ok := tr.LookupDetail(pair(20).Key()); ok {
		t.Error("pair (20,21) survived past the LRU capacity")
	}
	if c, period, evicted, ok := tr.LookupDetail(pair(30).Key()); !ok || !evicted || period != 2 || c.J != 0.7 {
		t.Fatalf("LookupDetail(30,31) = %+v period=%d evicted=%v ok=%v", c, period, evicted, ok)
	}

	st := tr.StatsSnapshot()
	if st.EvictedCap != 2 || st.EvictedLen != 2 {
		t.Errorf("LRU len=%d cap=%d, want 2/2", st.EvictedLen, st.EvictedCap)
	}
	if st.EvictedHits < 2 {
		t.Errorf("LRU hits = %d, want >= 2", st.EvictedHits)
	}
	if st.PrunedPeriods != 2 {
		t.Errorf("pruned periods = %d, want 2", st.PrunedPeriods)
	}
}

// TestTrackerLateReportsDropped verifies the pruning floor: a report for a
// period at or below the highest pruned period is dropped and counted as
// late, never resurrecting evicted state.
func TestTrackerLateReportsDropped(t *testing.T) {
	tr := NewTrackerWith(2, 8, 0)
	tr.SetRetention(2)
	pair := tagset.New(1, 2)
	tr.Execute(coeffTuple(1, pair, 0.5, 1), nil)
	tr.Execute(coeffTuple(2, pair, 0.6, 2), nil)
	tr.Execute(coeffTuple(3, pair, 0.7, 3), nil) // prunes period 1

	tr.Execute(coeffTuple(1, pair, 0.99, 9), nil) // late: period 1 is pruned
	if got := tr.Periods(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Periods() = %v, want [2 3]", got)
	}
	if c, period, ok := tr.Lookup(pair.Key()); !ok || period != 3 || c.J != 0.7 {
		t.Fatalf("Lookup = %+v period=%d ok=%v, late report leaked in", c, period, ok)
	}
	if st := tr.StatsSnapshot(); st.Late != 1 {
		t.Errorf("late = %d, want 1", st.Late)
	}
}
