package operators

import (
	"repro/internal/jaccard"
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
// a TrackerState export, in table order: shard by shard, each shard's
// entries in the order they arrived (topselect.Table slot order). That
// order is a function of the reports' arrival order, which the sequential
// executor repeats, so an export — and the checkpoint written from it — is
// deterministic without a sort.
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
// On an archived Tracker the export returns only once every report it
// holds has been appended to the archive (the intake barrier), so a
// checkpoint of it never references a report its segments lack.
func (tr *Tracker) ExportState(beforePeriod int64) TrackerState {
	return tr.ExportStateReusing(beforePeriod, nil)
}

// ExportStateReusing is ExportState for a checkpoint writer that keeps
// each period's last encoding (archive.SectionCache): for every exported
// period it first reads the period's write count — the sum over shards of
// its tables' topselect.Table.Writes, each read under its shard's lock —
// and a period for which reused(period, writes) reports true is exported
// with no coefficients and never gathered. reused may be nil.
//
// While a period is retained its tables are never replaced, so every
// shard's count only grows. An encoding cached under the count read before
// its gather therefore matches a later equal count only if no shard took a
// write since that read, and then it is what a fresh gather would encode.
// A pruned period's table renewed for a later period starts its count at
// zero again, but under the later period's id, and the cache is keyed by
// period, so it cannot match the encoding of the period it served before.
func (tr *Tracker) ExportStateReusing(beforePeriod int64, reused func(period int64, writes uint64) bool) TrackerState {
	st := TrackerState{
		Received:   tr.Received.Load(),
		Duplicates: tr.Duplicates.Load(),
		Late:       tr.Late.Load(),
	}
	rs := tr.reg.View(beforePeriod, nil)
	st.Floor, st.Pruned = rs.Floor, rs.Pruned
	for _, p := range rs.Periods {
		pc := PeriodCoefficients{Period: p}
		if reused == nil || !reused(p, tr.writes(p)) {
			pc.Coeffs = tr.gather(p)
		}
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

	// The export/append barrier (Tracker.intake): wait for the batches in
	// flight, whose reports this export may hold, to reach the archive.
	if tr.beforeBarrier != nil {
		tr.beforeBarrier()
	}
	tr.intake.Lock()
	tr.intake.Unlock()
	return st
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
		tr.reportBatch(pc.Period, pc.Coeffs, sc.keyHashes(pc.Coeffs), &sc)
	}
	if tr.lru != nil {
		for _, e := range st.Evicted {
			tr.lru.add(e.Coeff.Tags.Key(), e.Coeff, e.Period)
		}
		tr.lru.mu.Lock()
		tr.lru.hits = st.EvictedHits
		tr.lru.mu.Unlock()
	}
	tr.Received.Store(st.Received)
	tr.Duplicates.Store(st.Duplicates)
	tr.Late.Store(st.Late)
}
