package operators

import (
	"sync"
	"sync/atomic"

	"repro/internal/jaccard"
	"repro/internal/tagset"
	"repro/internal/topselect"
)

// TrackerArchive receives the Tracker's durable-log stream: the accepted
// coefficient reports (fresh values and CN upgrades) of each ingested
// batch, in arrival order, plus a seal when retention prunes a period (its
// in-memory state is gone; the archived segment is now the only copy).
// Implemented by archive.Writer. Appends are called from the Tracker's
// Execute path, so implementations must be cheap and thread-safe, and must
// not retain the slice, which the Tracker hands on to the Trend operator.
type TrackerArchive interface {
	AppendCoefficients(period int64, cs []jaccard.Coefficient)
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
func (tr *Tracker) NewestPeriod() (int64, bool) { return tr.reg.Newest() }

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
//
// A period whose tables have taken no write since its last export is served
// from that export, with no gather and no sort (exportCache), so the
// Periods' Coeffs may be shared with earlier and later exports: callers
// read them and never write them.
//
// On an archived Tracker the export returns only once every report it
// holds has been appended to the archive (the intake barrier), so a
// checkpoint of it never references a report its segments lack.
func (tr *Tracker) ExportState(beforePeriod int64) TrackerState {
	st := TrackerState{
		Received:   atomic.LoadInt64(&tr.Received),
		Duplicates: atomic.LoadInt64(&tr.Duplicates),
		Late:       atomic.LoadInt64(&tr.Late),
	}
	rs := tr.reg.View(beforePeriod, nil)
	st.Floor, st.Pruned = rs.Floor, rs.Pruned
	for _, p := range rs.Periods {
		st.Periods = append(st.Periods, PeriodCoefficients{Period: p, Coeffs: tr.exportPeriod(p)})
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

	// The export/append barrier (Tracker.intake): wait for the batches in
	// flight, whose reports this export may hold, to reach the archive.
	if tr.beforeBarrier != nil {
		tr.beforeBarrier()
	}
	tr.intake.Lock()
	tr.intake.Unlock()
	return st
}

// exportCache keeps, for each retained period ExportState has exported, the
// export's coefficients sorted by tagset key and the sum over shards of the
// period's table write counts (topselect.Table.Writes) that the copy was
// taken at, each shard's count read under the lock its entries were copied
// under. While the period is retained its tables are never replaced, so
// every shard's count only grows: an unchanged sum, read after the cached
// export was stored, means no shard took a write since its copy, and the
// copy is what a fresh gather and sort would return. prunePeriod drops a
// period's entry. The mutex guards the map only; gathers and sorts run
// outside it, so concurrent exports (Pipeline.Checkpoint beside the
// checkpoint writer) never wait on each other's sort, and a prune on the
// report path never waits on an export.
type exportCache struct {
	mu      sync.Mutex
	periods map[int64]periodExport
}

type periodExport struct {
	writes uint64
	coeffs []jaccard.Coefficient
}

// exportPeriod returns one retained period's coefficients sorted by tagset
// key: the cached export when the period's write count has not moved since
// it was taken, otherwise a fresh gather and sort, which replaces it. The
// entry is read before the counts are, so the counts compared against it
// are read after every copy behind it.
func (tr *Tracker) exportPeriod(p int64) []jaccard.Coefficient {
	cache := &tr.exports
	cache.mu.Lock()
	e, ok := cache.periods[p]
	cache.mu.Unlock()
	if ok && e.writes == tr.writes(p) {
		return e.coeffs
	}
	coeffs, writes := tr.gather(p)
	tagset.SortBy(coeffs, func(c jaccard.Coefficient) tagset.Set { return c.Tags })
	cache.mu.Lock()
	// A period pruned since the gather stays out: the registry raises the
	// floor before prunePeriod drops the entry under this lock.
	if p > tr.reg.Floor() {
		cache.periods[p] = periodExport{writes: writes, coeffs: coeffs}
	}
	cache.mu.Unlock()
	return coeffs
}

// drop forgets a pruned period's export.
func (c *exportCache) drop(p int64) {
	c.mu.Lock()
	delete(c.periods, p)
	c.mu.Unlock()
}

// ImportState loads an exported state into a freshly constructed Tracker.
// It must run before the pipeline starts (no concurrent reporters); the
// per-period heaps are maintained incrementally as the coefficients are
// re-inserted, so the imported Tracker answers TopK exactly as the
// exporting one did.
func (tr *Tracker) ImportState(st TrackerState) {
	rs := topselect.State{Floor: st.Floor, Pruned: st.Pruned}
	for _, pc := range st.Periods {
		rs.Periods = append(rs.Periods, pc.Period)
	}
	tr.reg.Import(rs)
	for _, s := range tr.shards {
		s.mu.Lock()
		s.floor = st.Floor
		s.mu.Unlock()
	}
	var sc intakeScratch
	for _, pc := range st.Periods {
		tr.reportBatch(pc.Period, pc.Coeffs, &sc)
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
