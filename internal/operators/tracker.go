package operators

import (
	"container/heap"
	"container/list"
	"maps"
	"math"
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
//     report locks only its shard, so report-side contention drops as the
//     number of reporting Calculators grows.
//   - Every shard incrementally maintains its top coefficients in a bounded
//     indexed min-heap, updated on report, duplicate upgrade and period
//     eviction. TopK(k) therefore merges the shard heaps — O(shards·bound)
//     candidates, O(k log k) selection — and never scans the retained
//     coefficient tables.
//   - A global period registry enforces the retention bound (SetRetention):
//     opening a new period prunes the oldest ones everywhere, and a floor
//     mark makes late reports for pruned periods cheap no-ops.
//   - Pruned coefficients can be remembered in a bounded LRU so point
//     lookups (the /pairs endpoint) still answer for pairs whose periods
//     have been evicted.
//
// All read methods (Periods, Report, All, TopK, Lookup, LookupDetail,
// Counts, StatsSnapshot) may be called from any goroutine while a
// concurrent pipeline run is still feeding the Tracker — this is the live
// view behind Pipeline.Snapshot and the HTTP query service.
type Tracker struct {
	shards []*trackerShard
	mask   uint64

	// bound is the top-k bound TopK's path decision reads (atomic); it is
	// published on the safe side of a SetTopKBound shard sweep, so the
	// heap-merge path never runs against shards that maintain less than
	// it. cfgMu serializes bound changes.
	bound int64
	cfgMu sync.Mutex

	reg periodRegistry
	lru *evictedLRU // nil when disabled

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
	// All three are updated atomically; read them via Counts or
	// StatsSnapshot while a run is in flight.
	Received   int64
	Duplicates int64
	Late       int64
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
		bound:  int64(topKBound),
	}
	for i := range tr.shards {
		tr.shards[i] = newTrackerShard(topKBound)
	}
	tr.reg.known = make(map[int64]struct{})
	tr.reg.floor = math.MinInt64
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
func (tr *Tracker) SetRetention(n int) {
	tr.reg.mu.Lock()
	defer tr.reg.mu.Unlock()
	tr.reg.keep = n
}

// SetTopKBound sets the per-shard incremental top-k bound and rebuilds the
// shard heaps. TopK(k) with k <= bound is served from the maintained heaps;
// larger k falls back to a full scan. Safe to call while a run is in
// flight: the bound TopK's path decision reads is published on the safe
// side of the shard sweep (after it when raising, before it when
// lowering), and TopK re-checks the bound under each shard lock, falling
// back to the exact scan if a concurrent lowering shrank a heap below the
// k it assumed.
func (tr *Tracker) SetTopKBound(n int) {
	if n < 1 {
		return
	}
	tr.cfgMu.Lock()
	defer tr.cfgMu.Unlock()
	tr.setBoundLocked(n)
}

func (tr *Tracker) setBoundLocked(n int) {
	cur := int(atomic.LoadInt64(&tr.bound))
	if n == cur {
		return
	}
	if n < cur {
		atomic.StoreInt64(&tr.bound, int64(n))
	}
	for _, s := range tr.shards {
		s.mu.Lock()
		if s.bound != n {
			s.bound = n
			s.rebuild()
		}
		s.mu.Unlock()
	}
	if n > cur {
		atomic.StoreInt64(&tr.bound, int64(n))
	}
}

// EnsureTopKBound raises the top-k bound to at least n (it never lowers
// it). The query service calls this so its configured top-k size is always
// served from the maintained heaps.
func (tr *Tracker) EnsureTopKBound(n int) {
	tr.cfgMu.Lock()
	defer tr.cfgMu.Unlock()
	if n > int(atomic.LoadInt64(&tr.bound)) {
		tr.setBoundLocked(n)
	}
}

func (tr *Tracker) topKBound() int {
	return int(atomic.LoadInt64(&tr.bound))
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
// may prune old ones); each coefficient then locks only the shard owning
// its tagset key. The key bytes are built once, into a stack buffer, and
// looked up without allocating: a duplicate that loses the CN comparison
// costs no allocation, and a key string exists only for an entry the
// tables keep. The reports that changed the tables leave as one TrendBatch
// (one per Trend task when there are several), gathered in a slice of
// their own: msg.Coeffs belongs to the emitter and is never written.
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
// TrendBatch of one CoeffBatch.
func (tr *Tracker) ingest(msg CoeffBatch, out storm.Collector) {
	atomic.AddInt64(&tr.Received, int64(len(msg.Coeffs)))

	retained, fresh, pruned := tr.reg.ensure(msg.Period)
	for _, p := range pruned {
		tr.prunePeriod(p)
	}
	if !retained {
		atomic.AddInt64(&tr.Late, int64(len(msg.Coeffs)))
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
	var accepted []jaccard.Coefficient
	var dups, lates int64
	for i, c := range msg.Coeffs {
		dup, late, updated := tr.report(msg.Period, c)
		if dup {
			dups++
		}
		if late {
			lates++
			continue
		}
		if dup && !updated {
			continue
		}
		if tr.archive != nil {
			archStart := telemetry.Now()
			tr.archive.AppendCoefficient(msg.Period, c)
			if msg.Trace != 0 {
				tr.flightRec.Span(msg.Trace, flight.StageArchive, archStart, telemetry.Now())
			}
		}
		if emit {
			if accepted == nil {
				accepted = make([]jaccard.Coefficient, 0, len(msg.Coeffs)-i)
			}
			accepted = append(accepted, c)
		}
	}
	atomic.AddInt64(&tr.Duplicates, dups)
	atomic.AddInt64(&tr.Late, lates)

	switch {
	case len(accepted) == 0:
	case tr.trendTasks <= 1:
		out.Emit(storm.Tuple{Stream: StreamTrend, Values: []interface{}{
			TrendBatch{Period: msg.Period, Coeffs: accepted, Trace: msg.Trace},
		}})
	default:
		for g, part := range splitByRoute(accepted, tr.trendTasks) {
			if len(part) == 0 {
				continue
			}
			out.Emit(storm.Tuple{Stream: StreamTrend, Values: []interface{}{
				TrendBatch{Period: msg.Period, Route: uint64(g), Coeffs: part, Trace: msg.Trace},
			}})
		}
	}
}

// report hands one coefficient to the shard owning its tagset: the key
// bytes are built once, into a stack buffer (16 tags fit; the Parser caps
// documents well below), and the shard is chosen by the hash of those
// bytes, the one the Calculators group sub-batches with.
func (tr *Tracker) report(period int64, c jaccard.Coefficient) (dup, late, updated bool) {
	var buf [64]byte
	key := c.Tags.AppendKey(buf[:0])
	return tr.shards[routeHashSet(c.Tags)&tr.mask].report(period, key, c)
}

// prunePeriod evicts one period from every shard and remembers the evicted
// coefficients in the LRU (newest period wins per pair). Exactly one
// goroutine prunes a given period: the registry hands each pruned id out
// once. The LRU is refilled in tagset-key order — map iteration order would
// otherwise randomize its recency list (and, when it is full, which pairs
// survive), making otherwise deterministic runs diverge. Adding N distinct
// keys in ascending order leaves the last min(N, cap) of them, in that
// order, at the front of the recency list whatever it held before; for
// N >= cap they fill it. So only those are selected, sorted and added: the
// contents, the order and the hit and miss counters are what adding all N
// would leave. (An entry already in the LRU carries an older period than
// the one being pruned — periods are pruned in ascending order — so the
// skipped adds could not have kept a newer value either.)
func (tr *Tracker) prunePeriod(p int64) {
	maps := make([]map[tagset.Key]jaccard.Coefficient, len(tr.shards))
	n := 0
	for i, s := range tr.shards {
		s.mu.Lock()
		maps[i] = s.evictPeriod(p)
		s.mu.Unlock()
		n += len(maps[i])
	}
	if tr.lru != nil && n > 0 {
		keys := make([]tagset.Key, 0, n)
		for _, m := range maps {
			for k := range m {
				keys = append(keys, k)
			}
		}
		keys = topselect.Select(keys, tr.lru.cap, func(a, b tagset.Key) bool { return a > b })
		slices.Sort(keys)
		for _, k := range keys {
			tr.lru.add(k, maps[routeHash(k)&tr.mask][k], p)
		}
	}
	if tr.archive != nil {
		tr.archive.SealPeriod(p)
	}
	tr.flightRec.RecordEvent(flight.EventRetentionPrune,
		"period "+strconv.FormatInt(p, 10)+" pruned")
}

// shardOf routes a tagset key to its shard (routeHash: FNV-1a over the key
// bytes, the same hash the Calculators group sub-batches with).
func (tr *Tracker) shardOf(k tagset.Key) *trackerShard {
	return tr.shards[routeHash(k)&tr.mask]
}

// PruneFloor returns the retention pruning floor: every period at or
// below it has been pruned, and late reports for those periods are
// rejected, so their archived segments can never grow again
// (math.MinInt64 before the first prune). The archive compactor uses it
// as the seal watermark.
func (tr *Tracker) PruneFloor() int64 {
	tr.reg.mu.RLock()
	defer tr.reg.mu.RUnlock()
	return tr.reg.floor
}

// Periods returns the retained reporting period ids in ascending order.
func (tr *Tracker) Periods() []int64 {
	tr.reg.mu.RLock()
	out := slices.AppendSeq(make([]int64, 0, len(tr.reg.known)), maps.Keys(tr.reg.known))
	tr.reg.mu.RUnlock()
	slices.Sort(out)
	return out
}

// Report returns the deduplicated coefficients of one period, sorted by
// descending J.
func (tr *Tracker) Report(period int64) []jaccard.Coefficient {
	out := tr.gather(period)
	sortCoefficients(out)
	return out
}

// gather copies one period's coefficients out of the shards, in no
// particular order. A first pass over the shards' table sizes sizes the
// slice, so it is allocated once (reports landing between the two passes
// merely grow it).
func (tr *Tracker) gather(period int64) []jaccard.Coefficient {
	n := 0
	for _, s := range tr.shards {
		s.mu.Lock()
		n += len(s.periods[period])
		s.mu.Unlock()
	}
	out := make([]jaccard.Coefficient, 0, n)
	for _, s := range tr.shards {
		s.mu.Lock()
		for _, c := range s.periods[period] {
			out = append(out, c)
		}
		s.mu.Unlock()
	}
	return out
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
// For k within the maintained bound (SetTopKBound, default 128) the call
// merges the shards' incrementally maintained heaps: it copies at most
// shards·bound candidates and selects k of them — no scan of the retained
// coefficient tables, so the cost is independent of how many coefficients
// the Tracker holds. k <= 0 or k > bound falls back to a full gather.
func (tr *Tracker) TopK(k int) []jaccard.Coefficient {
	if k <= 0 || k > tr.topKBound() {
		return tr.topKScan(k)
	}
	var cand []topEntry
	for _, s := range tr.shards {
		s.mu.Lock()
		if s.bound < k {
			// The bound was lowered between the path decision and this
			// lock: the shard no longer maintains its top k, so the merge
			// would be silently incomplete. The scan is always exact.
			s.mu.Unlock()
			return tr.topKScan(k)
		}
		cand = append(cand, s.top.entries...)
		s.mu.Unlock()
	}
	cand = topselect.Select(cand, k, entryBefore)
	out := make([]jaccard.Coefficient, len(cand))
	for i, e := range cand {
		out[i] = e.c
	}
	sortCoefficients(out)
	return out
}

// topKScan is the pre-sharding selection: gather every retained
// coefficient, then bounded-heap select. Kept as the fallback for k beyond
// the maintained bound (and as the baseline the benchmarks compare
// against). The shard locks are held only to copy coefficients, never to
// sort them.
func (tr *Tracker) topKScan(k int) []jaccard.Coefficient {
	var all []jaccard.Coefficient
	for _, s := range tr.shards {
		s.mu.Lock()
		for _, m := range s.periods {
			for _, c := range m {
				all = append(all, c)
			}
		}
		s.mu.Unlock()
	}
	all = topselect.Select(all, k, coeffBefore)
	sortCoefficients(all)
	return all
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
// from the evicted-coefficient LRU rather than a retained period.
func (tr *Tracker) LookupDetail(k tagset.Key) (c jaccard.Coefficient, period int64, evicted, ok bool) {
	s := tr.shardOf(k)
	s.mu.Lock()
	for p, m := range s.periods {
		if got, here := m[k]; here && (!ok || p > period) {
			c, period, ok = got, p, true
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
	TopKBound int `json:"topk_bound"` // per-shard incremental top-k bound

	Retained        int   `json:"retained_coefficients"` // retained coefficients across all shards
	RetainedPeriods int   `json:"retained_periods"`      // retained period count
	HeapEntries     int   `json:"heap_entries"`          // entries currently held in the shard heaps
	Rebuilds        int64 `json:"heap_rebuilds"`         // heap rebuilds (prunes, demotions, bound changes)
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
// Writers block only for the copy-out, never for sorting.
func (tr *Tracker) ConsistentView(k int) (top []jaccard.Coefficient, periods []int64, st TrackerStats) {
	var cand []jaccard.Coefficient
	periods, st = tr.view(func(s *trackerShard) {
		if k > 0 && k <= s.bound {
			// The maintained heap holds this shard's best min(bound,
			// entries) coefficients — a superset of its top-k contribution.
			for _, e := range s.top.entries {
				cand = append(cand, e.c)
			}
			return
		}
		for _, m := range s.periods {
			for _, c := range m {
				cand = append(cand, c)
			}
		}
	})
	cand = topselect.Select(cand, k, coeffBefore)
	sortCoefficients(cand)
	return cand, periods, st
}

// view is the Tracker's one statistics pass: the retained period ids
// (ascending) and the structural stats, read while the registry read-lock
// and every shard lock are held together. visit, when non-nil, runs on each
// shard inside that same critical section.
func (tr *Tracker) view(visit func(*trackerShard)) (periods []int64, st TrackerStats) {
	st = TrackerStats{
		Shards:     len(tr.shards),
		TopKBound:  tr.topKBound(),
		Received:   atomic.LoadInt64(&tr.Received),
		Duplicates: atomic.LoadInt64(&tr.Duplicates),
		Late:       atomic.LoadInt64(&tr.Late),
	}

	tr.reg.mu.RLock()
	for _, s := range tr.shards {
		s.mu.Lock()
	}
	periods = slices.AppendSeq(make([]int64, 0, len(tr.reg.known)), maps.Keys(tr.reg.known))
	st.RetainedPeriods = len(tr.reg.known)
	st.PrunedPeriods = tr.reg.pruned
	for _, s := range tr.shards {
		st.Retained += s.entries
		st.HeapEntries += s.top.Len()
		st.Rebuilds += s.rebuilds
		if visit != nil {
			visit(s)
		}
	}
	for _, s := range tr.shards {
		s.mu.Unlock()
	}
	tr.reg.mu.RUnlock()

	slices.Sort(periods)
	if tr.lru != nil {
		st.EvictedLen, st.EvictedCap, st.EvictedHits, st.EvictedMisses = tr.lru.stats()
	}
	return periods, st
}

// periodRegistry tracks the retained period ids globally, so the retention
// bound is enforced across shards: a period is pruned everywhere exactly
// once, and the floor marks everything at or below it as dead so late
// reports are rejected without touching the coefficient tables.
type periodRegistry struct {
	mu     sync.RWMutex
	known  map[int64]struct{}
	keep   int   // retained periods; 0 keeps everything
	floor  int64 // all periods <= floor are pruned
	pruned int64
}

// ensure registers period and returns whether it is retained, whether this
// call registered it fresh (the period-hook signal), plus the period ids
// this call decided to prune (each id is handed out exactly once; the
// caller must evict them from the shards).
func (r *periodRegistry) ensure(period int64) (retained, fresh bool, prune []int64) {
	r.mu.RLock()
	_, known := r.known[period]
	r.mu.RUnlock()
	if known {
		return true, false, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if period <= r.floor {
		return false, false, nil
	}
	if _, known := r.known[period]; known {
		return true, false, nil
	}
	r.known[period] = struct{}{}
	fresh = true
	if r.keep > 0 {
		for len(r.known) > r.keep {
			oldest := period
			for p := range r.known {
				if p < oldest {
					oldest = p
				}
			}
			delete(r.known, oldest)
			if oldest > r.floor {
				r.floor = oldest
			}
			r.pruned++
			prune = append(prune, oldest)
		}
	}
	_, retained = r.known[period]
	return retained, fresh, prune
}

// entryKey identifies one retained coefficient: a (period, tagset) pair.
type entryKey struct {
	period int64
	key    tagset.Key
}

// topEntry is one coefficient in a shard's maintained heap.
type topEntry struct {
	ek entryKey
	c  jaccard.Coefficient
}

// entryBefore ranks heap entries like coeffBefore, but compares the cached
// tagset key instead of re-encoding it.
func entryBefore(a, b topEntry) bool {
	if a.c.J != b.c.J {
		return a.c.J > b.c.J
	}
	if a.c.CN != b.c.CN {
		return a.c.CN > b.c.CN
	}
	return a.ek.key < b.ek.key
}

// topIndex is an indexed min-heap under entryBefore: the root ranks last
// among the kept entries, and pos maps every kept (period, key) to its heap
// slot so updates and removals are O(log n).
type topIndex struct {
	entries []topEntry
	pos     map[entryKey]int
}

func (h *topIndex) Len() int           { return len(h.entries) }
func (h *topIndex) Less(i, j int) bool { return entryBefore(h.entries[j], h.entries[i]) }
func (h *topIndex) Swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.pos[h.entries[i].ek] = i
	h.pos[h.entries[j].ek] = j
}
func (h *topIndex) Push(x interface{}) {
	e := x.(topEntry)
	h.pos[e.ek] = len(h.entries)
	h.entries = append(h.entries, e)
}
func (h *topIndex) Pop() interface{} {
	old := h.entries
	e := old[len(old)-1]
	h.entries = old[:len(old)-1]
	delete(h.pos, e.ek)
	return e
}

// trackerShard owns the coefficients whose tagset keys hash to it: the
// per-period tables plus the incrementally maintained top heap.
//
// Invariant: top holds exactly the best min(bound, entries) retained
// coefficients of this shard under entryBefore. Reports and duplicate
// upgrades maintain it in O(log bound); the rare cases where an excluded
// entry may need to re-enter (a demotion or an eviction while entries are
// excluded) rebuild the heap from the tables.
type trackerShard struct {
	mu       sync.Mutex
	periods  map[int64]map[tagset.Key]jaccard.Coefficient
	entries  int   // retained coefficients in this shard
	peak     int   // largest period table this shard has held; presizes the next
	floor    int64 // shard-local copy of the pruning floor
	bound    int
	top      topIndex
	rebuilds int64
}

func newTrackerShard(bound int) *trackerShard {
	return &trackerShard{
		periods: make(map[int64]map[tagset.Key]jaccard.Coefficient),
		floor:   math.MinInt64,
		bound:   bound,
		top:     topIndex{pos: make(map[entryKey]int)},
	}
}

// report records one coefficient under its key bytes (Set.AppendKey). It
// reports whether the report collided with an existing (period, key)
// entry, whether it was dropped because the period was pruned between the
// registry check and this shard lock, and — for collisions — whether the
// new value won (a CN upgrade that replaced the stored coefficient). The
// lookup reads the bytes in place; a key string is allocated only for an
// entry that is inserted or upgraded. key is not retained.
func (s *trackerShard) report(period int64, key []byte, c jaccard.Coefficient) (dup, late, updated bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if period <= s.floor {
		return false, true, false
	}
	m := s.periods[period]
	if m == nil {
		m = make(map[tagset.Key]jaccard.Coefficient, s.peak)
		s.periods[period] = m
	}
	prev, dup := m[tagset.Key(key)]
	if dup && c.CN <= prev.CN {
		return true, false, false
	}
	ek := entryKey{period: period, key: tagset.Key(key)}
	m[ek.key] = c
	if dup {
		s.updateTop(ek, prev, c)
		return true, false, true
	}
	s.entries++
	if len(m) > s.peak {
		s.peak = len(m)
	}
	s.offer(ek, c)
	return false, false, false
}

// offer inserts a fresh entry into the heap if it belongs to the best
// bound: push while below the bound, otherwise replace the root (the worst
// kept entry) when the candidate ranks above it.
func (s *trackerShard) offer(ek entryKey, c jaccard.Coefficient) {
	e := topEntry{ek: ek, c: c}
	if s.top.Len() < s.bound {
		heap.Push(&s.top, e)
		return
	}
	if entryBefore(e, s.top.entries[0]) {
		delete(s.top.pos, s.top.entries[0].ek)
		s.top.entries[0] = e
		s.top.pos[ek] = 0
		heap.Fix(&s.top, 0)
	}
}

// updateTop re-ranks an entry whose coefficient was upgraded (duplicate
// with a larger CN). An in-heap entry is fixed in place; if it was demoted
// while other entries are excluded from the heap, an excluded entry might
// now outrank it, so the heap is rebuilt. An out-of-heap entry is offered
// like a fresh one.
func (s *trackerShard) updateTop(ek entryKey, prev, c jaccard.Coefficient) {
	if i, ok := s.top.pos[ek]; ok {
		s.top.entries[i].c = c
		heap.Fix(&s.top, i)
		if s.entries > s.top.Len() && entryBefore(topEntry{ek: ek, c: prev}, topEntry{ek: ek, c: c}) {
			s.rebuild()
		}
		return
	}
	s.offer(ek, c)
}

// evictPeriod removes one period from the shard and returns its entries
// (for the evicted LRU). Heap members of the period are removed; if that
// leaves room while other entries are excluded, the heap is rebuilt so the
// invariant holds. The caller holds the shard lock.
func (s *trackerShard) evictPeriod(p int64) map[tagset.Key]jaccard.Coefficient {
	if p > s.floor {
		s.floor = p
	}
	m := s.periods[p]
	if m == nil {
		return nil
	}
	delete(s.periods, p)
	s.entries -= len(m)
	for k := range m {
		if i, ok := s.top.pos[entryKey{period: p, key: k}]; ok {
			heap.Remove(&s.top, i)
		}
	}
	if s.top.Len() < s.bound && s.entries > s.top.Len() {
		s.rebuild()
	}
	return m
}

// rebuild reconstructs the heap from the period tables: a bounded-heap
// selection over the shard's retained entries. It runs on period eviction,
// on demoting duplicate upgrades and on bound changes — never on TopK.
func (s *trackerShard) rebuild() {
	s.top.entries = s.top.entries[:0]
	s.top.pos = make(map[entryKey]int, s.bound)
	for p, m := range s.periods {
		for k, c := range m {
			s.offer(entryKey{period: p, key: k}, c)
		}
	}
	s.rebuilds++
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

// compareCoefficients is the top-k ranking as a three-way comparison:
// descending J, then descending CN, then the tagset key. It is 0 only for
// coefficients equal in all three, so a sort by it has one possible result.
func compareCoefficients(a, b jaccard.Coefficient) int {
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
