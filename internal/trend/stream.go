package trend

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jaccard"
	"repro/internal/tagset"
	"repro/internal/topselect"
)

// StreamConfig tunes the streaming detector. Alpha, MinSupport and
// MaxTracked have the batch Detector's semantics; the remaining knobs size
// the concurrent structure.
type StreamConfig struct {
	// Alpha is the exponential-smoothing factor of the per-tagset
	// predictor (see Config.Alpha).
	Alpha float64
	// MinSupport drops observations with a smaller intersection counter.
	MinSupport int64
	// MaxTracked bounds the number of live predictors across all shards
	// (approximately: the bound is enforced per shard). Zero is unbounded.
	MaxTracked int
	// TopK bounds the incrementally maintained per-period top-trends heaps.
	// TopTrends(period, k) with k <= TopK is served from the heaps without
	// scanning the period's scored events. Zero uses the default 64.
	TopK int
	// Threshold is the minimum score at which an event is pushed to
	// subscribers (the SSE feed). Scoring and the top-trends heaps are not
	// affected; zero publishes every scored event.
	Threshold float64
	// Shards is the number of lock shards (rounded up to a power of two).
	// Zero uses the default 8.
	Shards int
	// KeepPeriods bounds the per-period trend state (scored events and
	// top-trends heaps) to the newest n periods. Predictors are not
	// affected: they are the smoothed expectation state and persist across
	// period pruning. Zero keeps every period — the batch default.
	KeepPeriods int
}

// DefaultStreamConfig returns a moderate live-service configuration.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		Alpha:      0.4,
		MinSupport: 5,
		MaxTracked: 1 << 18,
		TopK:       64,
		Threshold:  0.1,
		Shards:     8,
	}
}

// Validate reports the first configuration error, or nil.
func (c StreamConfig) Validate() error {
	switch {
	case c.Alpha <= 0 || c.Alpha > 1:
		return fmt.Errorf("trend: alpha = %g", c.Alpha)
	case c.MinSupport < 1:
		return fmt.Errorf("trend: minSupport = %d", c.MinSupport)
	case c.MaxTracked < 0:
		return fmt.Errorf("trend: maxTracked = %d", c.MaxTracked)
	case c.TopK < 0:
		return fmt.Errorf("trend: topK = %d", c.TopK)
	case c.Threshold < 0 || c.Threshold > 1:
		return fmt.Errorf("trend: threshold = %g", c.Threshold)
	case c.Shards < 0:
		return fmt.Errorf("trend: shards = %d", c.Shards)
	case c.KeepPeriods < 0:
		return fmt.Errorf("trend: keepPeriods = %d", c.KeepPeriods)
	}
	return nil
}

// PredictorState is the live state of one tagset's predictor, as exposed by
// Stream.Predictor (the /trends/{tags...} point lookup).
type PredictorState struct {
	// Expectation is the smoothed correlation after the latest observation.
	Expectation float64
	// Base is the expectation the latest observation was scored against
	// (meaningless while Seen == 1: the first sighting has no base).
	Base float64
	// LastPeriod is the newest period observed; Seen counts observed
	// periods.
	LastPeriod int64
	Seen       int
}

// StreamStats is a point-in-time view of the streaming detector's internal
// structure, exposed through core.Snapshot; the json tags are its /stats
// rendering ("trends").
type StreamStats struct {
	Shards    int `json:"shards"`     // lock shard count
	TopKBound int `json:"topk_bound"` // per-period maintained heap bound

	Tracked         int   `json:"tracked_predictors"` // live predictors across all shards
	RetainedPeriods int   `json:"retained_periods"`   // periods with live trend state
	HeapEntries     int   `json:"heap_entries"`       // entries currently held across the period heaps
	Rebuilds        int64 `json:"heap_rebuilds"`      // heap rebuilds (demotions while entries excluded)
	PrunedPeriods   int64 `json:"pruned_periods"`     // periods evicted by KeepPeriods so far

	Scored     int64 `json:"events_scored"`    // deviation events scored (including corrections)
	Filtered   int64 `json:"filtered"`         // observations below MinSupport
	OutOfOrder int64 `json:"out_of_order"`     // observations older than their predictor's period
	Late       int64 `json:"late"`             // observations for periods already pruned by retention
	Published  int64 `json:"events_published"` // events delivered to at least one subscriber
	Dropped    int64 `json:"subscriber_drops"` // per-subscriber deliveries lost to full buffers

	Subscribers int `json:"subscribers"` // live event subscribers
}

// Stream is the concurrent streaming detector: the same EWMA scoring as the
// batch Detector, restructured for a live pipeline. Observations arrive one
// coefficient at a time (the Trend operator feeds it from the Tracker's
// deduplicated report stream), predictors live in lock shards keyed by the
// tagset-key hash, and every period's scored events live in a
// topselect.Table per shard — the Tracker's per-period table — whose
// bounded heap keeps the period's top trends, so top-trend queries never
// scan the scored-event tables. All methods are safe for concurrent use.
type Stream struct {
	cfg    StreamConfig
	shards []*streamShard
	mask   uint64

	reg    *topselect.Registry
	latest atomic.Int64 // newest period observed

	scored     atomic.Int64
	filtered   atomic.Int64
	outOfOrder atomic.Int64
	late       atomic.Int64
	published  atomic.Int64
	dropped    atomic.Int64

	// Subscriptions are served by a single broker goroutine: publish hands
	// an event to the broker channel with one non-blocking send, and the
	// broker fans it out to the per-subscriber buffered channels. However
	// many (and however slow) the subscribers, the dataflow's cost per
	// scored event is one channel operation. The broker starts with the
	// first subscriber and stops after the last cancels.
	subMu   sync.Mutex
	subs    map[int]chan Event
	nextSub int
	broker  atomic.Value // chan brokerFrame; nil-valued when no broker runs

	// archive receives every scored deviation and period seals
	// (SetArchive); set before the run starts, read-only afterwards.
	archive EventArchive

	// intake is the detector's pause for a checkpoint's cut: ObserveBatch
	// and Observe read-hold it, and ExportCut holds it for writing while it
	// reads the cut and copies the state. onPaused, when set by a test,
	// runs when an ObserveBatch finds the intake paused, before it waits.
	intake   sync.RWMutex
	onPaused func()
}

// brokerBuffer sizes the broker's intake channel; events beyond it are
// dropped (counted) rather than ever blocking the scoring path. The broker
// goroutine a publish wakes waits for the publishing Trend task's
// processor until that task blocks or is preempted, up to a scheduler time
// slice (10 ms) on a saturated machine. A Trend task with batches queued
// can publish more than a thousand events in that time, so the intake
// holds sixteen thousand (1.4 MB while a subscriber is live).
const brokerBuffer = 1 << 14

// brokerFrame is one unit of broker work: an event to fan out, a sync
// barrier to acknowledge, or a stop signal.
type brokerFrame struct {
	ev   Event
	sync chan struct{}
	stop bool
}

// NewStream returns a streaming detector, validating the configuration.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.TopK == 0 {
		cfg.TopK = 64
	}
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	s := &Stream{
		cfg:    cfg,
		shards: make([]*streamShard, n),
		mask:   uint64(n - 1),
		subs:   make(map[int]chan Event),
		reg:    topselect.NewRegistry(cfg.KeepPeriods),
	}
	maxPerShard := 0
	if cfg.MaxTracked > 0 {
		maxPerShard = (cfg.MaxTracked + n - 1) / n
		if maxPerShard < 1 {
			maxPerShard = 1
		}
	}
	for i := range s.shards {
		s.shards[i] = newStreamShard(cfg.TopK, maxPerShard)
	}
	s.latest.Store(math.MinInt64)
	return s, nil
}

// shardOf routes a tagset key to its shard by its FNV-1a Key.Hash. The
// Tracker routes by the fold instead; these shards keep the key hash
// because the shard decides which predictors a full shard's MaxTracked cap
// evicts, so a change of hash would move answers.
func (s *Stream) shardOf(k tagset.Key) *streamShard { return s.shards[k.Hash()&s.mask] }

// ObserveBatch feeds one period's reports, in order, as Observe does, with
// one wait at the intake (ExportCut's pause) for the whole batch: the
// Trend operator's path.
func (s *Stream) ObserveBatch(period int64, cs []jaccard.Coefficient) {
	if !s.intake.TryRLock() {
		if s.onPaused != nil {
			s.onPaused()
		}
		s.intake.RLock()
	}
	defer s.intake.RUnlock()
	for _, c := range cs {
		if !s.filter(c) {
			s.observe(period, c)
		}
	}
}

// Observe feeds one deduplicated coefficient report. The Tracker emits every
// accepted report exactly once per (period, tagset) value — fresh reports
// and CN upgrades — so Observe must handle both: an upgrade for the
// predictor's current period re-scores the period against the same base and
// corrects the smoothed expectation, exactly as if only the final value had
// been observed. Events at or above Threshold are pushed to subscribers.
func (s *Stream) Observe(period int64, c jaccard.Coefficient) {
	if s.filter(c) {
		return
	}
	s.intake.RLock()
	s.observe(period, c)
	s.intake.RUnlock()
}

// filter counts and reports an observation below MinSupport, which touches
// no state but the filtered counter and so needs no intake lock.
func (s *Stream) filter(c jaccard.Coefficient) bool {
	if c.CN < s.cfg.MinSupport {
		s.filtered.Add(1)
		return true
	}
	return false
}

// observe applies one report of at least MinSupport. The caller holds the
// intake for reading.
func (s *Stream) observe(period int64, c jaccard.Coefficient) {
	retained, _, prune := s.reg.Ensure(period)
	for _, p := range prune {
		for _, sh := range s.shards {
			sh.mu.Lock()
			sh.evictPeriod(p)
			sh.mu.Unlock()
		}
		if s.archive != nil {
			s.archive.SealPeriod(p)
		}
	}
	if !retained {
		// At or below the pruning floor: scoring would resurrect evicted
		// period state that retention could never prune again.
		s.late.Add(1)
		return
	}

	key := c.Tags.Key()
	sh := s.shardOf(key)
	sh.mu.Lock()
	ev, scored, outOfOrder, shardLate := sh.observe(s.cfg.Alpha, period, key, c)
	sh.mu.Unlock()

	if shardLate {
		// Pruned between the registry check and the shard lock.
		s.late.Add(1)
		return
	}
	if outOfOrder {
		s.outOfOrder.Add(1)
		return
	}
	if !scored {
		return
	}
	s.scored.Add(1)
	if s.archive != nil {
		s.archive.AppendEvent(ev)
	}
	for {
		cur := s.latest.Load()
		if period <= cur || s.latest.CompareAndSwap(cur, period) {
			break
		}
	}
	if ev.Score >= s.cfg.Threshold {
		s.publish(ev)
	}
}

// publish hands ev to the broker goroutine with a single non-blocking
// send: N slow subscribers cost the scoring path one channel operation.
// With no live subscribers (no broker) the event is discarded outright.
// A published event gets its own copy of its tags: a report's tags are a
// window of its flush's whole tag arena (jaccard.Coefficients), which a
// subscriber's buffer would otherwise keep alive.
func (s *Stream) publish(ev Event) {
	ch, _ := s.broker.Load().(chan brokerFrame)
	if ch == nil {
		return
	}
	ev.Tags = ev.Tags.Clone()
	select {
	case ch <- brokerFrame{ev: ev}:
	default:
		s.dropped.Add(1)
	}
}

// runBroker is the single fan-out goroutine: it drains the intake channel
// in order, delivering each event to every subscriber (dropping per
// subscriber on a full buffer), acknowledging sync barriers, and exiting
// on the stop frame the last cancellation enqueues.
func (s *Stream) runBroker(ch chan brokerFrame) {
	for f := range ch {
		switch {
		case f.stop:
			return
		case f.sync != nil:
			close(f.sync)
		default:
			s.fanout(f.ev)
		}
	}
}

func (s *Stream) fanout(ev Event) {
	s.subMu.Lock()
	delivered := false
	for _, ch := range s.subs {
		select {
		case ch <- ev:
			delivered = true
		default:
			s.dropped.Add(1)
		}
	}
	s.subMu.Unlock()
	if delivered {
		s.published.Add(1)
	}
}

// Sync blocks until every event handed to the broker before the call has
// been fanned out (or dropped). The end-of-run SSE drain uses it: after the
// pipeline drains, Sync guarantees the subscriber channel holds everything
// that will ever arrive. A bounded wait protects against a broker stopped
// by a concurrent last-subscriber cancellation.
func (s *Stream) Sync() {
	ch, _ := s.broker.Load().(chan brokerFrame)
	if ch == nil {
		return
	}
	done := make(chan struct{})
	select {
	case ch <- brokerFrame{sync: done}:
	case <-time.After(2 * time.Second):
		return
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
}

// Subscribe registers an event subscriber with the given channel buffer
// (<= 0 uses 64) and returns the channel plus a cancel function. Cancel
// closes the channel; events fanned out while the buffer is full are
// dropped for this subscriber only. Delivery is asynchronous through the
// broker goroutine: an event is visible on the channel shortly after (not
// during) the Observe call that scored it, in scoring order.
func (s *Stream) Subscribe(buffer int) (<-chan Event, func()) {
	if buffer <= 0 {
		buffer = 64
	}
	ch := make(chan Event, buffer)
	s.subMu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	if len(s.subs) == 1 {
		b := make(chan brokerFrame, brokerBuffer)
		s.broker.Store(b)
		go s.runBroker(b)
	}
	s.subMu.Unlock()
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			s.subMu.Lock()
			delete(s.subs, id)
			if len(s.subs) == 0 {
				if b, _ := s.broker.Load().(chan brokerFrame); b != nil {
					s.broker.Store((chan brokerFrame)(nil))
					// The stop frame queues behind any undelivered events;
					// sent from a goroutine because the intake may be full
					// and fanout needs subMu, which this callback holds.
					go func() { b <- brokerFrame{stop: true} }()
				}
			}
			s.subMu.Unlock()
			close(ch)
		})
	}
}

// Config returns the validated configuration the stream runs with
// (defaults filled in).
func (s *Stream) Config() StreamConfig { return s.cfg }

// LatestPeriod returns the newest period a deviation was scored in
// (math.MinInt64 before the first event).
func (s *Stream) LatestPeriod() int64 { return s.latest.Load() }

// PruneFloor returns the retention pruning floor: every period at or
// below it has been evicted and late observations for those periods are
// dropped, so their archived trend events can never grow again
// (math.MinInt64 before the first prune). The archive compactor uses it
// as the seal watermark.
func (s *Stream) PruneFloor() int64 { return s.reg.Floor() }

// Periods returns the period ids with live trend state, ascending.
func (s *Stream) Periods() []int64 { return s.reg.Periods() }

// Tracked reports the number of live predictors across all shards.
func (s *Stream) Tracked() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.preds)
		sh.mu.Unlock()
	}
	return n
}

// Predictor returns the live predictor state of one tagset key.
func (s *Stream) Predictor(k tagset.Key) (PredictorState, bool) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, ok := sh.preds[k]
	if !ok {
		return PredictorState{}, false
	}
	return PredictorState{Expectation: p.exp, Base: p.base, LastPeriod: p.period, Seen: p.seen}, true
}

// TopTrends returns the k highest-scoring events of one period, ordered by
// descending score (ties: ascending tagset key) — the batch Detector's
// event order. For k within the maintained bound the call merges the
// shards' period heaps and never scans the scored-event tables; k <= 0 or
// k > TopK falls back to a full gather.
func (s *Stream) TopTrends(period int64, k int) []Event {
	var cand []Event
	heapPath := k > 0 && k <= s.cfg.TopK
	for _, sh := range s.shards {
		sh.mu.Lock()
		t := sh.periods[period]
		if heapPath {
			for _, slot := range t.Top() {
				cand = append(cand, tableEvent(t, slot))
			}
		} else {
			cand = appendEvents(cand, t)
		}
		sh.mu.Unlock()
	}
	cand = topselect.Select(cand, k, func(a, b Event) bool { return compareTrends(a, b) < 0 })
	slices.SortFunc(cand, compareTrends)
	return cand
}

// StatsSnapshot gathers the structural counters under the shard locks.
func (s *Stream) StatsSnapshot() StreamStats {
	st := StreamStats{
		Shards:     len(s.shards),
		TopKBound:  s.cfg.TopK,
		Scored:     s.scored.Load(),
		Filtered:   s.filtered.Load(),
		OutOfOrder: s.outOfOrder.Load(),
		Late:       s.late.Load(),
		Published:  s.published.Load(),
		Dropped:    s.dropped.Load(),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Tracked += len(sh.preds)
		for _, t := range sh.periods {
			st.HeapEntries += len(t.Top())
		}
		st.Rebuilds += sh.rebuilds
		sh.mu.Unlock()
	}
	rs := s.reg.View(math.MaxInt64, nil)
	st.RetainedPeriods = len(rs.Periods)
	st.PrunedPeriods = rs.Pruned
	s.subMu.Lock()
	st.Subscribers = len(s.subs)
	s.subMu.Unlock()
	return st
}

// streamPredictor is one tagset's live EWMA state. base is the expectation
// the current period was scored against — kept so a duplicate upgrade for
// the same period can re-score and re-smooth as if only the final value had
// been observed.
type streamPredictor struct {
	base   float64
	exp    float64
	period int64
	seen   int
}

// scoredEvent is an Event as a period table stores it: the event's tags
// live in the table's arena, so the value holds no pointer.
type scoredEvent struct {
	Period                     int64
	Predicted, Observed, Score float64
	Rising                     bool
	CN                         int64
}

// eventTable is one period's scored events of one shard.
type eventTable = topselect.Table[scoredEvent]

// tableEvent returns the event in one slot of t, its tags reattached from
// the table's arena (read-only).
func tableEvent(t *eventTable, slot int32) Event {
	tags, e := t.Entry(slot)
	return Event{Tags: tags, Period: e.Period, Predicted: e.Predicted, Observed: e.Observed,
		Score: e.Score, Rising: e.Rising, CN: e.CN}
}

// appendEvents appends every event of t to evs.
func appendEvents(evs []Event, t *eventTable) []Event {
	for slot := range int32(t.Len()) {
		evs = append(evs, tableEvent(t, slot))
	}
	return evs
}

// compareScores ranks scored events by descending score; the period tables
// break its ties by their tags in tagset.Compare order — ascending tagset
// key, the batch Detector's order.
func compareScores(a, b scoredEvent) int { return cmp.Compare(b.Score, a.Score) }

// compareTrends is the batch Detector's event order: descending score, then
// ascending tagset key.
func compareTrends(a, b Event) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return tagset.Compare(a.Tags, b.Tags)
}

// streamShard owns the predictors and per-period trend state of the tagset
// keys that hash to it: one topselect.Table per retained period, holding
// the period's scored events and a heap of its best min(bound, len) under
// compareTrends.
type streamShard struct {
	mu      sync.Mutex
	preds   map[tagset.Key]*streamPredictor
	periods map[int64]*eventTable

	bound    int   // heap bound per period
	maxPreds int   // predictor cap; 0 unbounded
	floor    int64 // shard-local copy of the pruning floor
	rebuilds int64
}

func newStreamShard(bound, maxPreds int) *streamShard {
	return &streamShard{
		preds:    make(map[tagset.Key]*streamPredictor),
		periods:  make(map[int64]*eventTable),
		bound:    bound,
		maxPreds: maxPreds,
		floor:    math.MinInt64,
	}
}

// observe applies one report to the shard. The caller holds the lock. The
// floor re-check closes the registry-to-shard-lock race: a period the
// registry called retained may have been pruned by a concurrent Observe
// before this shard lock was taken, and recording into it would resurrect
// state that retention can never free again.
func (sh *streamShard) observe(alpha float64, period int64, key tagset.Key, c jaccard.Coefficient) (ev Event, scored, outOfOrder, late bool) {
	if period <= sh.floor {
		return Event{}, false, false, true
	}
	p := sh.preds[key]
	switch {
	case p == nil:
		// First sighting: establish the predictor, no event.
		sh.preds[key] = &streamPredictor{exp: c.J, period: period, seen: 1}
		sh.evictPredictors()
		return Event{}, false, false, false
	case period > p.period:
		p.base = p.exp
		p.period = period
		p.seen++
	case period == p.period:
		if p.seen == 1 {
			// Upgrade within the establishment period: replace the first
			// observation, still no event.
			p.exp = c.J
			return Event{}, false, false, false
		}
		// Correction: re-score the period against the same base.
	default:
		// Older than the predictor's period: the EWMA has already moved
		// past it; dropped and counted.
		return Event{}, false, true, false
	}
	score := c.J - p.base
	rising := score > 0
	if score < 0 {
		score = -score
	}
	p.exp = alpha*c.J + (1-alpha)*p.base
	ev = Event{
		Tags:      c.Tags,
		Period:    period,
		Predicted: p.base,
		Observed:  c.J,
		Score:     score,
		Rising:    rising,
		CN:        c.CN,
	}
	sh.record(ev)
	return ev, true, false, false
}

// record stores ev in its period's table, whose heap keeps the period's
// best events.
func (sh *streamShard) record(ev Event) {
	t := sh.periods[ev.Period]
	if t == nil {
		t = topselect.NewTable(sh.bound, 0, compareScores)
		sh.periods[ev.Period] = t
	}
	v := scoredEvent{Period: ev.Period, Predicted: ev.Predicted, Observed: ev.Observed,
		Score: ev.Score, Rising: ev.Rising, CN: ev.CN}
	if t.Put(t.Find(topselect.Fold(ev.Tags), ev.Tags), ev.Tags, v) {
		sh.rebuilds++
	}
}

// evictPeriod drops one period's trend state and advances the shard floor
// so late observations for it cannot resurrect the maps. Predictors
// persist: they are the smoothed expectation, not per-period state. The
// caller holds the lock.
func (sh *streamShard) evictPeriod(p int64) {
	sh.floor = max(sh.floor, p)
	delete(sh.periods, p)
}

// evictPredictors enforces the predictor cap, dropping the stalest eighth
// in one pass so the scan amortizes instead of firing per insert. Staleness
// is the last period, ties broken by key, so which predictors survive does
// not depend on map order.
func (sh *streamShard) evictPredictors() {
	if sh.maxPreds <= 0 || len(sh.preds) <= sh.maxPreds {
		return
	}
	type entry struct {
		k    tagset.Key
		last int64
	}
	all := make([]entry, 0, len(sh.preds))
	for k, p := range sh.preds {
		all = append(all, entry{k, p.period})
	}
	slices.SortFunc(all, func(a, b entry) int { return cmp.Or(cmp.Compare(a.last, b.last), cmp.Compare(a.k, b.k)) })
	drop := len(sh.preds) - sh.maxPreds + sh.maxPreds/8
	if drop > len(all) {
		drop = len(all)
	}
	for _, e := range all[:drop] {
		delete(sh.preds, e.k)
	}
}
