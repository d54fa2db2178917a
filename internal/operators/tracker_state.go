package operators

import (
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/jaccard"
	"repro/internal/tagset"
)

// TrackerArchive receives the Tracker's durable-log stream: every accepted
// coefficient report (fresh values and CN upgrades) as it happens, plus a
// seal when retention prunes a period (its in-memory state is gone; the
// archived segment is now the only copy). Implemented by archive.Writer.
// Appends are called from the Tracker's Execute path, so implementations
// must be cheap and thread-safe.
type TrackerArchive interface {
	AppendCoefficient(period int64, c jaccard.Coefficient)
	SealPeriod(period int64)
}

// SetArchive attaches the durable-log sink. Call before the run starts.
func (tr *Tracker) SetArchive(a TrackerArchive) { tr.archive = a }

// SetPeriodHook registers a callback invoked whenever a brand-new reporting
// period is registered (i.e. the previous period just produced its first
// flush). The hook runs on the reporting task's goroutine with no Tracker
// locks held — the checkpointer uses it as its cadence signal. Call before
// the run starts.
func (tr *Tracker) SetPeriodHook(fn func(period int64)) { tr.periodHook = fn }

// NewestPeriod returns the largest retained period id (ok=false before the
// first report).
func (tr *Tracker) NewestPeriod() (int64, bool) {
	tr.reg.mu.RLock()
	defer tr.reg.mu.RUnlock()
	newest, ok := int64(0), false
	for p := range tr.reg.known {
		if !ok || p > newest {
			newest, ok = p, true
		}
	}
	return newest, ok
}

// PeriodCoefficients is one reporting period's deduplicated coefficients in
// a TrackerState export, sorted by tagset key for deterministic encoding.
type PeriodCoefficients struct {
	Period int64
	Coeffs []jaccard.Coefficient
}

// EvictedCoefficient is one entry of the evicted-pair LRU in a TrackerState
// export, in least-recently-touched-first order.
type EvictedCoefficient struct {
	Coeff  jaccard.Coefficient
	Period int64
}

// TrackerState is the Tracker's restartable state, produced by ExportState
// and consumed by ImportState on a fresh Tracker. It carries only sealed
// information: an export cut at beforePeriod holds no data of any period at
// or beyond the cut, so recovery can replay the stream from the cut's first
// document and converge to the uninterrupted state (duplicate replayed
// reports are absorbed by the CN-max dedup).
type TrackerState struct {
	Periods []PeriodCoefficients // ascending period order
	Floor   int64                // pruning floor (periods <= Floor are dead)
	Pruned  int64                // periods evicted by retention so far

	Evicted     []EvictedCoefficient // LRU contents, least recent first
	EvictedHits int64

	Received   int64
	Duplicates int64
	Late       int64
}

// ExportState copies the Tracker's restartable state, restricted to periods
// strictly before beforePeriod (pass math.MaxInt64 for everything). The
// newest period is typically excluded: it may still be partially flushed,
// and the recovery protocol replays it from the stream instead.
func (tr *Tracker) ExportState(beforePeriod int64) TrackerState {
	st := TrackerState{
		Received:   atomic.LoadInt64(&tr.Received),
		Duplicates: atomic.LoadInt64(&tr.Duplicates),
		Late:       atomic.LoadInt64(&tr.Late),
	}
	tr.reg.mu.RLock()
	periods := make([]int64, 0, len(tr.reg.known))
	for p := range tr.reg.known {
		if p < beforePeriod {
			periods = append(periods, p)
		}
	}
	st.Floor = tr.reg.floor
	st.Pruned = tr.reg.pruned
	tr.reg.mu.RUnlock()
	sort.Slice(periods, func(i, j int) bool { return periods[i] < periods[j] })

	for _, p := range periods {
		pc := PeriodCoefficients{Period: p, Coeffs: tr.gather(p)}
		slices.SortFunc(pc.Coeffs, func(a, b jaccard.Coefficient) int {
			return tagset.Compare(a.Tags, b.Tags)
		})
		st.Periods = append(st.Periods, pc)
	}

	if tr.lru != nil {
		tr.lru.mu.Lock()
		for el := tr.lru.ll.Back(); el != nil; el = el.Prev() {
			ep := el.Value.(*evictedPair)
			st.Evicted = append(st.Evicted, EvictedCoefficient{Coeff: ep.c, Period: ep.period})
		}
		st.EvictedHits = tr.lru.hits
		tr.lru.mu.Unlock()
	}
	return st
}

// ImportState loads an exported state into a freshly constructed Tracker.
// It must run before the pipeline starts (no concurrent reporters); the
// shard heaps are maintained incrementally as the coefficients are
// re-inserted, so the imported Tracker answers TopK exactly as the
// exporting one did.
func (tr *Tracker) ImportState(st TrackerState) {
	tr.reg.mu.Lock()
	tr.reg.floor = st.Floor
	tr.reg.pruned = st.Pruned
	for _, pc := range st.Periods {
		tr.reg.known[pc.Period] = struct{}{}
	}
	tr.reg.mu.Unlock()
	for _, s := range tr.shards {
		s.mu.Lock()
		s.floor = st.Floor
		s.mu.Unlock()
	}
	for _, pc := range st.Periods {
		for _, c := range pc.Coeffs {
			tr.report(pc.Period, c)
		}
	}
	if tr.lru != nil {
		for _, e := range st.Evicted {
			tr.lru.add(e.Coeff.Tags.Key(), e.Coeff, e.Period)
		}
		tr.lru.mu.Lock()
		tr.lru.hits = st.EvictedHits
		tr.lru.mu.Unlock()
	}
	atomic.StoreInt64(&tr.Received, st.Received)
	atomic.StoreInt64(&tr.Duplicates, st.Duplicates)
	atomic.StoreInt64(&tr.Late, st.Late)
}
