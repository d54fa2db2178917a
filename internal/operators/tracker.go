package operators

import (
	"container/list"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/flight"
	"repro/internal/jaccard"
	"repro/internal/storm"
	"repro/internal/tagset"
	"repro/internal/telemetry"
	"repro/internal/topselect"
)

// Tracker collects the Jaccard coefficients from all Calculators. When the
// same tagset is reported by multiple Calculators in one period (tags
// replicated across partitions), it keeps the coefficient with the largest
// counter CN — the longest-tracked one (Section 6.2).
//
// The Tracker is the live query state of the whole system, so it is built
// for concurrent reads under a write-heavy report stream:
//
//   - Retained coefficients are sharded by a hash of the tagset key; a
//     batch locks each shard it reports into once, so report-side
//     contention drops as the number of reporting Calculators grows.
//   - Every shard keeps one topselect.Table per retained period: the
//     period's coefficients by tagset fold, they and their tags in
//     fixed-size chunks, plus a bounded min-heap of its best ones, updated
//     on report and duplicate upgrade. A table holds no pointer, so the GC
//     never traces a retained coefficient. The best bound of the periods
//     before a shard's newest are merged into one older block, so TopK(k)
//     reads at most shards·2·bound entries whatever the retention and
//     never scans the retained coefficient tables. Evicting a period drops
//     its table, heap included, from the retained ones, and the table
//     becomes its shard's spare: the next period the shard opens renews it
//     (topselect.Table.Renew) instead of building one from nothing.
//   - A global topselect.Registry enforces the retention bound
//     (SetRetention): opening a new period prunes the oldest ones
//     everywhere, and a floor mark makes late reports for pruned periods
//     cheap no-ops.
//   - Pruned coefficients can be remembered in a bounded LRU so point
//     lookups (the /pairs endpoint) still answer for pairs whose periods
//     have been evicted.
//
// All read methods (Periods, Report, All, TopK, Lookup, LookupDetail,
// ConsistentView, StatsSnapshot) may be called from any goroutine while a
// concurrent pipeline run is still feeding the Tracker — this is the live
// view behind Pipeline.Snapshot and the HTTP query service.
type Tracker struct {
	shards []*trackerShard
	mask   uint64

	reg *topselect.Registry
	lru *evictedLRU // nil when disabled

	// scratch is a free list of reportBatch's per-batch arrays, reused
	// across batches; it holds one for each ingest that has run at once.
	scratchMu sync.Mutex
	scratch   []*intakeScratch

	// emitTrend forwards accepted reports on StreamTrend (EnableTrendEmit);
	// trendTasks is the Trend operator's parallelism (Prepare; 0 outside a
	// topology), which an accepted batch is split by when it exceeds one.
	// Both are set during topology assembly, read-only once the run starts.
	emitTrend  bool
	trendTasks int

	// archive receives accepted reports and period seals (SetArchive);
	// periodHook fires when a brand-new period registers (SetPeriodHook).
	// Both are set during assembly, read-only once the run starts.
	archive    TrackerArchive
	periodHook func(period int64)

	// intake is the export/append barrier of an archived Tracker. ingest
	// read-holds it from its first report until the batch's archive append
	// returns; ExportState ends by taking it for writing once, which waits
	// for exactly the batches in flight. So every report an export copied
	// has been appended before the export returns, and the segment flush of
	// the WriteCheckpoint that follows makes it durable with the checkpoint.
	// Lock order: intake, then the archive Writer's mutex. ExportState is
	// never reached from inside ingest (the period hook only marks a
	// checkpoint due), so the barrier cannot wait on itself.
	intake sync.RWMutex

	// afterReports and beforeBarrier, when set by a test, run between
	// ingest's report loop and its archive append, and just before
	// ExportState's barrier.
	afterReports, beforeBarrier func()

	// stages records the doc→tracker-accept latency of each ingested
	// coefficient batch (SetStages); set during assembly, read-only once
	// the run starts.
	stages *Stages

	// flightRec records track/archive spans for traced batches and
	// retention-prune events (SetFlight); set during assembly, read-only
	// once the run starts. Nil-safe.
	flightRec *flight.Recorder

	// Received counts all incoming coefficients; Duplicates counts those
	// that collided with an existing report for the same tagset and period;
	// Late counts reports dropped because their period was already pruned.
	// StatsSnapshot reads all three at once.
	Received   atomic.Int64
	Duplicates atomic.Int64
	Late       atomic.Int64
}

const (
	defaultTrackerShards = 16
	defaultTopKBound     = 128
)

// NewTracker returns a Tracker bolt with the default shard count and top-k
// bound and no evicted-coefficient LRU.
func NewTracker() *Tracker { return NewTrackerWith(0, 0, 0) }

// NewTrackerWith returns a Tracker with the given shard count (rounded up
// to a power of two; <= 0 uses the default 16), maintained top-k bound
// (<= 0 uses the default 128) and evicted-coefficient LRU capacity (<= 0
// disables the LRU).
func NewTrackerWith(shards, topKBound, evictedCap int) *Tracker {
	if shards <= 0 {
		shards = defaultTrackerShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if topKBound <= 0 {
		topKBound = defaultTopKBound
	}
	tr := &Tracker{
		shards: make([]*trackerShard, n),
		mask:   uint64(n - 1),
		reg:    topselect.NewRegistry(0),
	}
	for i := range tr.shards {
		tr.shards[i] = &trackerShard{
			periods: make(map[int64]*coeffTable),
			older:   make([]jaccard.Coefficient, 0, 2*topKBound), // a fold appends one heap to a full block
			newest:  math.MinInt64,
			floor:   math.MinInt64,
			bound:   topKBound,
		}
	}
	if evictedCap > 0 {
		tr.lru = newEvictedLRU(evictedCap)
	}
	return tr
}

// SetRetention bounds the Tracker to the n most recent reporting periods
// (0 keeps everything — the batch default). Older periods are pruned as
// new ones open, so a long-running service's memory stays proportional to
// n. Call before the run starts; All/TopK/Lookup then cover only the
// retained periods (plus, for Lookup, the evicted LRU when enabled).
func (tr *Tracker) SetRetention(n int) { tr.reg.SetKeep(n) }

// EnsureTopKBound raises the per-period heap bound to at least n (it never
// lowers it), rebuilding the heaps that now have room for entries they had
// excluded. The query service calls this so its configured top-k size is
// always served from the maintained heaps. Safe while a run is in flight:
// each shard is raised under its own lock, and TopK decides per shard,
// under that lock, whether the shard's heaps cover k.
func (tr *Tracker) EnsureTopKBound(n int) {
	for _, s := range tr.shards {
		s.mu.Lock()
		if n > s.bound {
			s.bound, s.olderStale = n, true
			for _, t := range s.periods {
				if t.SetBound(n) {
					s.rebuilds++
				}
			}
		}
		s.mu.Unlock()
	}
}

// Prepare implements storm.Bolt. It learns the Trend operator's
// parallelism from the topology, as the Calculator learns the Tracker's;
// every task of the shared instance reads the same value, before the run
// starts.
func (tr *Tracker) Prepare(ctx *storm.TaskContext) {
	tr.trendTasks = len(ctx.TasksOf("trend"))
}

// EnableTrendEmit makes the Tracker forward every accepted report — fresh
// (period, tagset) coefficients and CN upgrades — on StreamTrend, the feed
// of the Trend operator. Call before the run starts.
func (tr *Tracker) EnableTrendEmit() { tr.emitTrend = true }

// SetStages wires the stage-latency histograms: each CoeffBatch carrying
// an ingest stamp records its doc→tracker-accept latency once ingested.
// Call before the run starts.
func (tr *Tracker) SetStages(st *Stages) { tr.stages = st }

// SetFlight wires the flight recorder: traced coefficient batches record
// track (and archive) spans and retention prunes record events. Call
// before the run starts.
func (tr *Tracker) SetFlight(rec *flight.Recorder) { tr.flightRec = rec }

// Execute implements storm.Bolt: the report path, one CoeffBatch — a
// Calculator's period flush, or its sub-batch for this task — per tuple.
// The period registry is consulted once for the batch (opening a new period
// may prune old ones); the batch is then grouped by shard, and each shard
// is locked once for its run of reports (reportBatch), by the folds the
// batch carries from its flush (folded here, once, for a batch built
// without them). A report costs one table lookup by its carried fold, and
// allocates nothing: a fresh entry's tags are copied into its table's
// arena. msg.Coeffs belongs to this task once emitted (CoeffBatch): when
// there is an archive or a Trend feed, the reports that changed the tables
// are compacted, in arrival order, into its prefix, appended to the
// archive in one call and emitted as one TrendBatch (one per Trend task
// when there are several, grouped in place by the same folds). With
// neither, msg.Coeffs is only read.
func (tr *Tracker) Execute(t storm.Tuple, out storm.Collector) {
	msg := t.Values[0].(CoeffBatch)
	start := telemetry.Now()
	tr.ingest(msg, out)
	if tr.stages != nil && msg.Ingest > 0 {
		tr.stages.DocTrackerAccept.Record(telemetry.Since(msg.Ingest))
	}
	if msg.Trace != 0 {
		tr.flightRec.Span(msg.Trace, flight.StageTrack, start, telemetry.Now())
	}
}

// ingest is Execute without its timing: registry, shards, archive and the
// TrendBatch of one CoeffBatch. It releases the batch's reference of its
// report buffer on every path, after taking one for each TrendBatch it
// emits.
func (tr *Tracker) ingest(msg CoeffBatch, out storm.Collector) {
	defer msg.buf.release()
	tr.Received.Add(int64(len(msg.Coeffs)))

	retained, fresh, pruned := tr.reg.Ensure(msg.Period)
	for _, p := range pruned {
		tr.prunePeriod(p)
	}
	if !retained {
		tr.Late.Add(int64(len(msg.Coeffs)))
		return
	}
	// The period hook fires before the first report of the new period is
	// recorded: a checkpoint taken inside the hook therefore holds no data
	// of the new period at all, and the recovery replay (which starts at
	// the new period's first document) cannot double-count anything.
	if fresh && tr.periodHook != nil {
		tr.periodHook(msg.Period)
	}

	emit := tr.emitTrend && out != nil
	archived := tr.archive != nil
	if archived {
		tr.intake.RLock()
	}
	sc := tr.getScratch()
	defer tr.putScratch(sc)
	folds := msg.folds
	if folds == nil { // a batch built without a flush
		folds = sc.foldAll(msg.Coeffs)
	}
	n, dups, lates := tr.reportBatch(msg.Period, msg.Coeffs, folds, sc)
	tr.Duplicates.Add(dups)
	tr.Late.Add(lates)
	var accepted []jaccard.Coefficient
	if (emit || archived) && n > 0 {
		accepted = tr.compact(msg.Coeffs, folds, sc, emit && tr.trendTasks > 1)
	}
	if archived {
		if tr.afterReports != nil {
			tr.afterReports()
		}
		tr.appendArchive(msg, accepted)
		tr.intake.RUnlock()
	}

	switch {
	case !emit || len(accepted) == 0:
	case tr.trendTasks <= 1:
		msg.buf.retain()
		out.Emit(storm.Tuple{Stream: StreamTrend, Values: []interface{}{
			TrendBatch{Period: msg.Period, Coeffs: accepted, Trace: msg.Trace, buf: msg.buf},
		}})
	default:
		for g, part := range groupByRoute(accepted, nil, sc.route, tr.trendTasks) {
			if len(part) == 0 {
				continue
			}
			msg.buf.retain()
			out.Emit(storm.Tuple{Stream: StreamTrend, Values: []interface{}{
				TrendBatch{Period: msg.Period, Route: uint64(g), Coeffs: part, Trace: msg.Trace, buf: msg.buf},
			}})
		}
	}
}

// compact moves the reports reportBatch accepted to the front of cs, in
// arrival order, and returns that prefix. cs is the batch this task owns
// (CoeffBatch), so no copy of it is made. With split it also sets
// sc.route to each accepted report's Trend task, from its fold (folds[i]
// for cs[i]).
func (tr *Tracker) compact(cs []jaccard.Coefficient, folds []tagset.Fold, sc *intakeScratch, split bool) []jaccard.Coefficient {
	n := 0
	sc.route = sc.route[:0]
	for i, keep := range sc.accepted {
		if !keep {
			continue
		}
		cs[n] = cs[i]
		n++
		if split {
			sc.route = append(sc.route, int32(routeOf(folds[i])%uint64(tr.trendTasks)))
		}
	}
	return cs[:n:n]
}

// appendArchive hands a batch's accepted reports, in arrival order, to the
// archive in one call; a traced batch records it as one archive span.
func (tr *Tracker) appendArchive(msg CoeffBatch, accepted []jaccard.Coefficient) {
	if len(accepted) == 0 {
		return
	}
	if msg.Trace == 0 {
		tr.archive.AppendCoefficients(msg.Period, accepted)
		return
	}
	start := telemetry.Now()
	tr.archive.AppendCoefficients(msg.Period, accepted)
	tr.flightRec.Span(msg.Trace, flight.StageArchive, start, telemetry.Now())
}

// intakeScratch is reportBatch's per-batch state, reused from batch to
// batch through Tracker.scratch.
type intakeScratch struct {
	folds    []tagset.Fold // each report's fold, for a batch that carries none
	order    []int32       // report indices grouped by shard, in arrival order within each
	start    []int32       // shard i's run ends at order[start[i]] once grouped
	accepted []bool        // whether each report changed its table
	route    []int32       // each accepted report's Trend task, for the Trend split
}

// getScratch takes an intakeScratch off the free list, or makes one.
func (tr *Tracker) getScratch() *intakeScratch {
	tr.scratchMu.Lock()
	defer tr.scratchMu.Unlock()
	if n := len(tr.scratch); n > 0 {
		sc := tr.scratch[n-1]
		tr.scratch = tr.scratch[:n-1]
		return sc
	}
	return new(intakeScratch)
}

// putScratch returns sc to the free list.
func (tr *Tracker) putScratch(sc *intakeScratch) {
	tr.scratchMu.Lock()
	tr.scratch = append(tr.scratch, sc)
	tr.scratchMu.Unlock()
}

// foldAll returns the fold of every report of cs, in sc.folds: the intake
// of a batch that carries none.
func (sc *intakeScratch) foldAll(cs []jaccard.Coefficient) []tagset.Fold {
	sc.folds = resized(sc.folds, len(cs))
	for i := range cs {
		sc.folds[i] = topselect.Fold(cs[i].Tags)
	}
	return sc.folds
}

// reportBatch records one period's reports, sets sc.accepted, and counts
// the accepted reports (fresh entries and CN upgrades), the duplicates and
// the late ones. A counting pass groups the reports by shard — by the
// route of their folds (folds[i] for cs[i]), which the Calculators group
// sub-batches by too, so the shards of one Tracker task are its own — and
// each shard's run is reported under one lock, in arrival order.
func (tr *Tracker) reportBatch(period int64, cs []jaccard.Coefficient, folds []tagset.Fold, sc *intakeScratch) (accepted int, dups, lates int64) {
	shards := len(tr.shards)
	sc.order = resized(sc.order, len(cs))
	sc.accepted = resized(sc.accepted, len(cs))
	sc.start = resized(sc.start, shards+1)
	clear(sc.start)
	for _, f := range folds {
		sc.start[routeOf(f)&tr.mask+1]++
	}
	for i := 1; i <= shards; i++ {
		sc.start[i] += sc.start[i-1]
	}
	for i, f := range folds { // start[s] advances from shard s's start to its end
		s := routeOf(f) & tr.mask
		sc.order[sc.start[s]] = int32(i)
		sc.start[s]++
	}
	lo := int32(0)
	for i, s := range tr.shards {
		if hi := sc.start[i]; hi > lo {
			a, d, l := s.reportRun(period, cs, folds, sc.order[lo:hi], sc.accepted)
			accepted, dups, lates = accepted+a, dups+d, lates+l
			lo = hi
		}
	}
	return accepted, dups, lates
}

// resized returns s with length n, reallocated only when it is too short.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// prunePeriod evicts one period from every shard and remembers the evicted
// coefficients in the LRU (newest period wins per pair). Exactly one
// goroutine prunes a given period: the registry hands each pruned id out
// once. The LRU is refilled in tagset-key order — table order would
// otherwise decide its recency list (and, when it is full, which pairs
// survive) by arrival order across shards, which concurrent runs do not
// repeat. Adding N distinct keys in ascending order leaves the last
// min(N, cap) of them, in that order, at the front of the recency list
// whatever it held before; for N >= cap they fill it. So only those are
// selected, over references to the evicted tables' slots, sorted and
// added, each with its own copy of its tags: the contents, the order and
// the hit and miss counters are what adding all N would leave, and the LRU
// keeps no evicted table's arena alive. (An entry already in the LRU
// carries an older period than the one being pruned — periods are pruned
// in ascending order — so the skipped adds could not have kept a newer
// value either.) Once the LRU is refilled, each shard's evicted table goes
// back to it as its spare, under its lock, for the next period it opens.
// Nothing reads an evicted table after that: every other reader holds a
// table only under its shard's lock, and the renewal gives the table a
// fresh arena, so the tags any reader copied out stay valid.
func (tr *Tracker) prunePeriod(p int64) {
	tables := make([]*coeffTable, len(tr.shards))
	n := 0
	for i, s := range tr.shards {
		s.mu.Lock()
		tables[i] = s.dropPeriod(p)
		s.mu.Unlock()
		n += tables[i].Len()
	}
	if tr.lru != nil && n > 0 {
		// first is the entry's first tag byte-reversed (0 for no tag): two
		// sets whose first tags differ compare as those do (tagset.Compare),
		// so most comparisons of the selection read no table.
		type slotRef struct {
			shard, slot int32
			first       uint32
		}
		refs := make([]slotRef, 0, n)
		for i, t := range tables {
			for slot := range int32(t.Len()) {
				r := slotRef{shard: int32(i), slot: slot}
				if tags, _ := t.Entry(slot); len(tags) > 0 {
					r.first = bits.ReverseBytes32(uint32(tags[0]))
				}
				refs = append(refs, r)
			}
		}
		tags := func(r slotRef) tagset.Set {
			s, _ := tables[r.shard].Entry(r.slot)
			return s
		}
		refs = topselect.Select(refs, tr.lru.cap, func(a, b slotRef) bool {
			if a.first != b.first {
				return a.first > b.first
			}
			return tagset.Compare(tags(a), tags(b)) > 0
		})
		tagset.SortBy(refs, tags)
		for _, r := range refs {
			set, v := tables[r.shard].Entry(r.slot)
			set = set.Clone()
			tr.lru.add(set.Key(), coefficient(set, v), p)
		}
	}
	if tr.archive != nil {
		tr.archive.SealPeriod(p)
	}
	for i, s := range tr.shards {
		if tables[i] != nil {
			s.mu.Lock()
			s.spare = tables[i]
			s.mu.Unlock()
		}
	}
	tr.flightRec.RecordEvent(flight.EventRetentionPrune,
		"period "+strconv.FormatInt(p, 10)+" pruned")
}

// shardOf returns the shard that holds the tagset folded to f (routeOf,
// the route the Calculators group sub-batches by).
func (tr *Tracker) shardOf(f tagset.Fold) *trackerShard {
	return tr.shards[routeOf(f)&tr.mask]
}

// PruneFloor returns the retention pruning floor: every period at or
// below it has been pruned, and late reports for those periods are
// rejected, so their archived segments can never grow again
// (math.MinInt64 before the first prune). The archive compactor uses it
// as the seal watermark.
func (tr *Tracker) PruneFloor() int64 { return tr.reg.Floor() }

// Periods returns the retained reporting period ids in ascending order.
func (tr *Tracker) Periods() []int64 { return tr.reg.Periods() }

// Report returns the deduplicated coefficients of one period, sorted by
// descending J.
func (tr *Tracker) Report(period int64) []jaccard.Coefficient {
	out := tr.gather(period)
	sortCoefficients(out)
	return out
}

// gather copies one period's coefficients out of the shards in table
// order: shard by shard, each in slot order. A first pass over the shards'
// table sizes sizes the slice, so it is allocated once (reports landing
// between the two passes merely grow it).
func (tr *Tracker) gather(period int64) []jaccard.Coefficient {
	n := 0
	for _, s := range tr.shards {
		s.mu.Lock()
		n += s.periods[period].Len()
		s.mu.Unlock()
	}
	out := make([]jaccard.Coefficient, 0, n)
	for _, s := range tr.shards {
		s.mu.Lock()
		out = appendAll(out, s.periods[period])
		s.mu.Unlock()
	}
	return out
}

// writes sums one period's table write counts over the shards.
func (tr *Tracker) writes(period int64) (n uint64) {
	for _, s := range tr.shards {
		s.mu.Lock()
		n += s.periods[period].Writes()
		s.mu.Unlock()
	}
	return n
}

// All returns every deduplicated coefficient across the retained periods,
// period by period in ascending order, each period sorted by descending J.
func (tr *Tracker) All() []jaccard.Coefficient {
	var out []jaccard.Coefficient
	for _, p := range tr.Periods() {
		out = append(out, tr.Report(p)...)
	}
	return out
}

// TopK returns the k highest-Jaccard coefficients across every retained
// period, deduplicated per period exactly as All. Ties break by descending
// CN, then the tagset key, so the result is deterministic for a fixed
// Tracker state. k <= 0 returns all.
//
// For k within the maintained bound (EnsureTopKBound, default 128) the
// call copies each shard's older block and newest-period heap — at most
// shards·2·bound candidates, however many periods are retained — and
// selects k of them after the locks are released: no scan of the retained
// coefficient tables, so the cost is independent of how many coefficients
// the Tracker holds. k <= 0 or k > bound falls back to a full gather.
func (tr *Tracker) TopK(k int) []jaccard.Coefficient { return tr.topK(k, false) }

// topKScan is TopK without the heaps: gather every retained coefficient,
// then bounded-heap select. The stress test checks TopK against it, and
// the benchmarks compare the two.
func (tr *Tracker) topKScan(k int) []jaccard.Coefficient { return tr.topK(k, true) }

func (tr *Tracker) topK(k int, scan bool) []jaccard.Coefficient {
	var cand []jaccard.Coefficient
	for _, s := range tr.shards {
		s.mu.Lock()
		cand = s.candidates(cand, k, len(tr.shards), scan)
		s.mu.Unlock()
	}
	return selectTop(cand, k)
}

// selectTop keeps the best k candidates (all for k <= 0) in ranking order.
func selectTop(cand []jaccard.Coefficient, k int) []jaccard.Coefficient {
	cand = topselect.Select(cand, k, coeffBefore)
	sortCoefficients(cand)
	return cand
}

// Lookup returns the most recent coefficient reported for the given tagset
// key, together with its reporting period. Retained periods are consulted
// newest-first; when the key's periods have all been pruned and the
// evicted LRU is enabled, the LRU answers instead.
func (tr *Tracker) Lookup(k tagset.Key) (jaccard.Coefficient, int64, bool) {
	c, period, _, ok := tr.LookupDetail(k)
	return c, period, ok
}

// LookupDetail is Lookup plus an evicted flag: true when the answer came
// from the evicted-coefficient LRU rather than a retained period. The key
// is decoded onto the stack and folded once. Each probe of a period is one
// table lookup: the shard's newest period first, and the other retained
// periods only when it does not hold the key. Nothing is allocated.
func (tr *Tracker) LookupDetail(k tagset.Key) (c jaccard.Coefficient, period int64, evicted, ok bool) {
	var buf [16]tagset.Tag
	tags := k.AppendSet(buf[:0])
	f := topselect.Fold(tags)
	s := tr.shardOf(f)
	s.mu.Lock()
	find := func(p int64, t *coeffTable) {
		if slot, here := t.Find(f, tags).Slot(); here {
			c, period, ok = coefficient(t.Entry(slot)), p, true
		}
	}
	if find(s.newest, s.periods[s.newest]); !ok {
		for p, t := range s.periods {
			if p != s.newest && (!ok || p > period) {
				find(p, t)
			}
		}
	}
	s.mu.Unlock()
	if ok {
		return c, period, false, true
	}
	if tr.lru != nil {
		if c, period, ok = tr.lru.get(k); ok {
			return c, period, true, true
		}
	}
	return jaccard.Coefficient{}, 0, false, false
}

// TrackerStats is a point-in-time view of the Tracker's internal structure
// (shards, maintained heaps, retention, evicted LRU), exposed through
// Pipeline.Snapshot; the json tags are its /stats rendering ("tracker").
type TrackerStats struct {
	Shards    int `json:"shards"`     // shard count
	TopKBound int `json:"topk_bound"` // heap bound per shard and period

	Retained        int   `json:"retained_coefficients"` // coefficients of the retained periods across all shards
	RetainedPeriods int   `json:"retained_periods"`      // retained period count
	HeapEntries     int   `json:"heap_entries"`          // entries held in the per-period heaps of the retained periods
	Rebuilds        int64 `json:"heap_rebuilds"`         // per-period heap rebuilds (demotions, bound raises; never prunes)
	PrunedPeriods   int64 `json:"pruned_periods"`        // periods evicted by retention so far

	EvictedLen    int   `json:"evicted_pairs"`       // pairs currently in the evicted LRU
	EvictedCap    int   `json:"evicted_pairs_cap"`   // LRU capacity (0: disabled)
	EvictedHits   int64 `json:"evicted_pair_hits"`   // lookups answered from the LRU
	EvictedMisses int64 `json:"evicted_pair_misses"` // LRU lookups that found nothing

	// Received and Duplicates are on /stats' top level, as
	// coefficients_received and coefficients_duplicate.
	Received   int64 `json:"-"`
	Duplicates int64 `json:"-"`
	Late       int64 `json:"late_reports"`
}

// StatsSnapshot gathers the structural counters in one locked pass.
func (tr *Tracker) StatsSnapshot() TrackerStats {
	_, st := tr.view(nil)
	return st
}

// ConsistentView returns the top-k coefficients, the retained period ids
// (ascending) and the structural stats gathered in one pass, so the three
// describe the same instant. This is the serving layer's snapshot read —
// under CPU saturation piecemeal TopK/Periods/StatsSnapshot calls could be
// seconds apart, producing snapshots whose fields contradict each other.
// Stale older blocks are rebuilt first, one shard lock at a time; under all
// the locks together the pass copies TopK's candidates (shards·2·bound at
// most for k within the bound) and rebuilds only a block that went stale
// in between. The selection and sort run after the locks are released.
func (tr *Tracker) ConsistentView(k int) (top []jaccard.Coefficient, periods []int64, st TrackerStats) {
	for _, s := range tr.shards {
		s.mu.Lock()
		s.olderBest()
		s.mu.Unlock()
	}
	var cand []jaccard.Coefficient
	periods, st = tr.view(func(s *trackerShard) { cand = s.candidates(cand, k, len(tr.shards), false) })
	return selectTop(cand, k), periods, st
}

// view is the Tracker's one statistics pass: the retained period ids
// (ascending) and the structural stats, read while the registry read-lock
// and every shard lock are held together. visit, when non-nil, runs on each
// shard inside that same critical section.
func (tr *Tracker) view(visit func(*trackerShard)) (periods []int64, st TrackerStats) {
	st = TrackerStats{
		Shards:     len(tr.shards),
		Received:   tr.Received.Load(),
		Duplicates: tr.Duplicates.Load(),
		Late:       tr.Late.Load(),
	}
	rs := tr.reg.View(math.MaxInt64, func(rs topselect.State) {
		for _, s := range tr.shards {
			s.mu.Lock()
		}
		for _, s := range tr.shards {
			st.TopKBound = max(st.TopKBound, s.bound)
			st.Rebuilds += s.rebuilds
			for p, t := range s.periods {
				if p > rs.Floor { // not a pruned period still being evicted
					st.Retained += t.Len()
					st.HeapEntries += len(t.Top())
				}
			}
			if visit != nil {
				visit(s)
			}
		}
		for _, s := range tr.shards {
			s.mu.Unlock()
		}
	})
	st.RetainedPeriods = len(rs.Periods)
	st.PrunedPeriods = rs.Pruned
	if tr.lru != nil {
		st.EvictedLen, st.EvictedCap, st.EvictedHits, st.EvictedMisses = tr.lru.stats()
	}
	return rs.Periods, st
}

// coeffValue is a coefficient as a Tracker table stores it: its tags live
// in the table's arena, so the value holds no pointer.
type coeffValue struct {
	J  float64
	CN int64
}

// coeffTable is one period's coefficients of one shard.
type coeffTable = topselect.Table[coeffValue]

// coefficient reattaches a stored value to its tags; tags from a table's
// Entry stay the table's, read-only.
func coefficient(tags tagset.Set, v coeffValue) jaccard.Coefficient {
	return jaccard.Coefficient{Tags: tags, J: v.J, CN: v.CN}
}

// appendAll appends every coefficient of t to cs.
func appendAll(cs []jaccard.Coefficient, t *coeffTable) []jaccard.Coefficient {
	for slot := range int32(t.Len()) {
		cs = append(cs, coefficient(t.Entry(slot)))
	}
	return cs
}

// appendTop appends the coefficients of t's heap to cs.
func appendTop(cs []jaccard.Coefficient, t *coeffTable) []jaccard.Coefficient {
	for _, slot := range t.Top() {
		cs = append(cs, coefficient(t.Entry(slot)))
	}
	return cs
}

// trackerShard owns the coefficients whose tagset keys hash to it: one
// topselect.Table per retained period, each holding the period's
// coefficients and a heap of its best min(bound, len) under (descending J,
// descending CN, ascending key). A table's coefficients and tags fill
// chunks allocated as they arrive; only its index is presized, by peak.
//
// older is the best bound coefficients of every table but the newest
// period's, unordered: the read side's block for the periods reports have
// moved past. Opening a newer period folds the previous newest heap into
// it; an eviction, a report into an older period or a bound raise marks it
// stale instead, and the next read rebuilds it from the older tables'
// heaps. A top-k read therefore visits older plus one heap, at most
// 2·bound entries, however many periods are retained.
type trackerShard struct {
	mu         sync.Mutex
	periods    map[int64]*coeffTable
	newest     int64 // newest period this shard has opened a table for
	older      []jaccard.Coefficient
	olderStale bool
	// peak is the most entries a period table of this shard has held; a
	// new period's index is presized by it.
	peak int
	// spare is the table of a period retention evicted (prunePeriod), kept
	// for the next period this shard opens, which renews it; nil when
	// there is none.
	spare    *coeffTable
	floor    int64 // shard-local copy of the pruning floor
	bound    int   // heap bound per period; only rises
	rebuilds int64
}

// reportRun records one period's reports cs[i], whose folds are folds[i],
// i in run, in run order, under one lock, sets accepted[i] to whether each
// changed the table, and counts them, the duplicates and the late reports.
// A report already held is a duplicate: it replaces the entry only with a
// larger CN (a CN upgrade). Each report is one lookup by its fold and, for
// a fresh or upgraded entry, one Put at the position the lookup found. Every
// report of the run is late when the period was pruned between the
// registry check and this lock. A period the shard has no table for yet
// gets the spare, renewed, or a new table, either with its index presized
// by peak.
func (s *trackerShard) reportRun(period int64, cs []jaccard.Coefficient, folds []tagset.Fold, run []int32, accepted []bool) (n int, dups, lates int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if period <= s.floor {
		for _, i := range run {
			accepted[i] = false
		}
		return 0, 0, int64(len(run))
	}
	t := s.periods[period]
	if t == nil {
		if t = s.spare; t != nil {
			s.spare = nil
			t.Renew(s.bound, s.peak)
		} else {
			t = topselect.NewTable(s.bound, s.peak, rankValues)
		}
		s.periods[period] = t
		if period > s.newest {
			s.fold(s.periods[s.newest])
			s.newest = period
		}
	}
	for _, i := range run {
		c := &cs[i]
		pos := t.Find(folds[i], c.Tags)
		if slot, dup := pos.Slot(); dup {
			dups++
			if _, prev := t.Entry(slot); c.CN <= prev.CN {
				accepted[i] = false
				continue
			}
		}
		if t.Put(pos, c.Tags, coeffValue{J: c.J, CN: c.CN}) {
			s.rebuilds++
		}
		accepted[i] = true
		n++
	}
	if n > 0 {
		s.olderStale = s.olderStale || period != s.newest
		s.peak = max(s.peak, t.Len())
	}
	return n, dups, 0
}

// fold merges one older table's heap into the older block, keeping its best
// bound (a stale block is left for the rebuild). The caller holds the lock.
func (s *trackerShard) fold(t *coeffTable) {
	if s.olderStale {
		return
	}
	s.older = appendTop(s.older, t)
	s.older = s.older[:len(topselect.Select(s.older, s.bound, coeffBefore))]
}

// olderBest returns the older block, rebuilding it first when stale. The
// caller holds the lock.
func (s *trackerShard) olderBest() []jaccard.Coefficient {
	if s.olderStale {
		s.older, s.olderStale = s.older[:0], false
		for p, t := range s.periods {
			if p != s.newest {
				s.fold(t)
			}
		}
	}
	return s.older
}

// candidates appends the shard's share of a top-k read to cand: every
// retained coefficient when scan is set or the heaps do not cover k (k <= 0
// or k > bound), otherwise the older block and the newest period's heap.
// The first shard of a read sizes cand for shards of its own size. The
// caller holds the lock.
func (s *trackerShard) candidates(cand []jaccard.Coefficient, k, shards int, scan bool) []jaccard.Coefficient {
	if scan || k <= 0 || k > s.bound {
		for _, t := range s.periods {
			cand = appendAll(cand, t)
		}
		return cand
	}
	older, newest := s.olderBest(), s.periods[s.newest]
	if cand == nil {
		cand = make([]jaccard.Coefficient, 0, shards*(len(older)+len(newest.Top())))
	}
	cand = append(cand, older...)
	return appendTop(cand, newest)
}

// dropPeriod removes one period from the shard and returns its table (for
// the evicted LRU, then the spare); its heap goes with it, and the older
// block goes stale when it may have held some of its coefficients. The
// caller holds the shard lock.
func (s *trackerShard) dropPeriod(p int64) *coeffTable {
	s.floor = max(s.floor, p)
	t := s.periods[p]
	delete(s.periods, p)
	s.olderStale = s.olderStale || (p != s.newest && len(t.Top()) > 0)
	return t
}

// evictedLRU remembers the latest coefficient of pairs whose reporting
// periods were pruned, so point lookups can answer across retention
// (ROADMAP: the /pairs endpoint over pruned periods). Bounded, newest
// period wins per pair, least-recently-touched pair evicted first.
type evictedLRU struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently touched
	idx    map[tagset.Key]*list.Element
	hits   int64
	misses int64
}

type evictedPair struct {
	key    tagset.Key
	c      jaccard.Coefficient
	period int64
}

func newEvictedLRU(capacity int) *evictedLRU {
	return &evictedLRU{
		cap: capacity,
		ll:  list.New(),
		idx: make(map[tagset.Key]*list.Element, capacity),
	}
}

func (l *evictedLRU) add(k tagset.Key, c jaccard.Coefficient, period int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.idx[k]; ok {
		ep := el.Value.(*evictedPair)
		if period >= ep.period {
			ep.c, ep.period = c, period
		}
		l.ll.MoveToFront(el)
		return
	}
	l.idx[k] = l.ll.PushFront(&evictedPair{key: k, c: c, period: period})
	if l.ll.Len() > l.cap {
		back := l.ll.Back()
		l.ll.Remove(back)
		delete(l.idx, back.Value.(*evictedPair).key)
	}
}

func (l *evictedLRU) get(k tagset.Key) (jaccard.Coefficient, int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.idx[k]
	if !ok {
		l.misses++
		return jaccard.Coefficient{}, 0, false
	}
	l.ll.MoveToFront(el)
	l.hits++
	ep := el.Value.(*evictedPair)
	return ep.c, ep.period, true
}

func (l *evictedLRU) stats() (length, capacity int, hits, misses int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ll.Len(), l.cap, l.hits, l.misses
}

// rankValues is the top-k ranking without its tie-break: descending J,
// then descending CN. The per-period tables break its ties by their tags,
// in tagset.Compare order.
func rankValues(a, b coeffValue) int {
	switch {
	case a.J != b.J:
		if a.J > b.J {
			return -1
		}
		return 1
	case a.CN != b.CN:
		if a.CN > b.CN {
			return -1
		}
		return 1
	}
	return 0
}

// compareCoefficients is the top-k ranking as a three-way comparison:
// descending J, then descending CN, then the tagset key. It is 0 only for
// coefficients equal in all three, so a sort by it has one possible result.
func compareCoefficients(a, b jaccard.Coefficient) int {
	if c := rankValues(coeffValue{a.J, a.CN}, coeffValue{b.J, b.CN}); c != 0 {
		return c
	}
	return tagset.Compare(a.Tags, b.Tags)
}

// coeffBefore reports whether a ranks strictly before b in the top-k
// ranking.
func coeffBefore(a, b jaccard.Coefficient) bool { return compareCoefficients(a, b) < 0 }

// sortCoefficients orders by the top-k ranking — the deterministic "top
// correlations first" order used by reports and the live top-k view.
func sortCoefficients(out []jaccard.Coefficient) {
	slices.SortFunc(out, compareCoefficients)
}
