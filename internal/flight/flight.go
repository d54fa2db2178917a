// Package flight is the pipeline's flight recorder: the always-on,
// bounded-memory record of "what just happened" that aggregate metrics
// cannot answer. It holds three instruments:
//
//   - a lock-free ring of timestamped operational events (repartitions,
//     checkpoint begin/end, compactor passes, retention prunes, spout
//     throttle saturation, archive errors, watchdog verdicts);
//   - sampled per-document span traces: every document is stamped at the
//     spout and provisionally traced through partition → disseminate →
//     calculate → track → trend → archive; deterministic 1-in-N head
//     sampling plus tail-based retention of the K slowest documents per
//     window decide which traces survive;
//   - a watchdog (watchdog.go) that turns live counters into stall
//     verdicts.
//
// Everything is sized up front and overwrites oldest-first, so the
// recorder is safe to leave on in production: the hot-path cost is one
// atomic claim per event and a sharded map insert per traced span.
package flight

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Event kinds recorded into the operational ring. The set is closed so
// the per-kind counter families can be pre-registered (promcheck can then
// -require them before any event fires).
const (
	EventRepartition       = "repartition"
	EventCheckpointBegin   = "checkpoint_begin"
	EventCheckpointEnd     = "checkpoint_end"
	EventCompaction        = "compaction"
	EventRetentionPrune    = "retention_prune"
	EventThrottleSaturated = "throttle_saturated"
	EventArchiveError      = "archive_error"
	EventWatchdog          = "watchdog"
)

// EventKinds lists every event kind in a stable order for metric
// registration and dump formatting.
var EventKinds = []string{
	EventRepartition,
	EventCheckpointBegin,
	EventCheckpointEnd,
	EventCompaction,
	EventRetentionPrune,
	EventThrottleSaturated,
	EventArchiveError,
	EventWatchdog,
}

// Pipeline stages in span order. Stage names double as the JSON stage
// field on /debug/traces/{id}.
const (
	StageSpout       = "spout"
	StagePartition   = "partition"
	StageDisseminate = "disseminate"
	StageCalculate   = "calculate"
	StageTrack       = "track"
	StageTrend       = "trend"
	StageArchive     = "archive"
)

// stageRank orders spans for display and completeness checks.
var stageRank = map[string]int{
	StageSpout:       0,
	StagePartition:   1,
	StageDisseminate: 2,
	StageCalculate:   3,
	StageTrack:       4,
	StageTrend:       5,
	StageArchive:     6,
}

// Event is one operational occurrence. At is a telemetry.Now stamp
// (monotonic ns since process start); Seq totally orders events across
// writers.
type Event struct {
	Seq  uint64
	At   int64
	Kind string
	Msg  string
}

// Span is one pipeline stage's contribution to a document trace. Start
// and End are telemetry.Now stamps. Count is how many times the stage
// observed the document (a disseminator may notify several calculators;
// a calculator flush may carry many coefficients): repeats extend End
// and bump Count rather than appending duplicate spans.
type Span struct {
	Stage string `json:"stage"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Count int    `json:"count"`
}

// Trace is the span record of a single sampled document. ID is the
// 1-based document index assigned at the spout, which makes head
// sampling ("every N-th document") deterministic across runs.
type Trace struct {
	ID       uint64 `json:"id"`
	Sampled  bool   `json:"sampled"`  // head-sampled: retained regardless of speed
	Retained string `json:"retained"` // "", "sample" or "slow" once finalized
	Ingest   int64  `json:"ingest_ns"`
	Spans    []Span `json:"spans"`
	last     int64  // max span End seen; duration = last - Ingest
}

// Duration returns ns from ingest to the latest span end.
func (t *Trace) Duration() int64 {
	if t.last <= t.Ingest {
		return 0
	}
	return t.last - t.Ingest
}

// Complete reports whether the trace covers the mandatory document path
// (spout through calculate). Track/trend/archive spans only exist for
// documents whose window flushed while they were traced, so they are
// informative but not required.
func (t *Trace) Complete() bool {
	var seen [4]bool
	for _, s := range t.Spans {
		if r, ok := stageRank[s.Stage]; ok && r < len(seen) {
			seen[r] = true
		}
	}
	return seen[0] && seen[1] && seen[2] && seen[3]
}

func (t *Trace) sortSpans() {
	sort.SliceStable(t.Spans, func(i, j int) bool {
		ri, rj := stageRank[t.Spans[i].Stage], stageRank[t.Spans[j].Stage]
		if ri != rj {
			return ri < rj
		}
		return t.Spans[i].Start < t.Spans[j].Start
	})
}

// Config sizes a Recorder. The zero value of every field selects a
// sensible default; Sample <= 0 disables document tracing entirely while
// keeping the event ring live.
type Config struct {
	// Sample retains every Sample-th document's trace unconditionally
	// (deterministic head sampling by doc index). <= 0 disables tracing.
	Sample int
	// SlowMS is the tail-retention threshold: a finalized trace at least
	// this slow competes for the per-window slow slots. 0 means 250ms.
	SlowMS int64
	// SlowK is how many slowest traces are retained per window (default 8).
	SlowK int
	// Window is the rotation width in documents (default 4096): traces
	// are finalized — retained or discarded — one full window after
	// their own window closes, giving in-flight spans time to land.
	Window int
	// ActiveCap bounds the provisional (not yet finalized) trace table
	// (default 16384). When full, non-head-sampled documents go untraced.
	ActiveCap int
	// DoneCap bounds retained finalized traces, FIFO (default 256).
	DoneCap int
	// Events is the event-ring capacity, rounded up to a power of two
	// (default 1024).
	Events int
}

func (c Config) withDefaults() Config {
	if c.SlowMS == 0 {
		c.SlowMS = 250
	}
	if c.SlowK <= 0 {
		c.SlowK = 8
	}
	if c.Window <= 0 {
		c.Window = 4096
	}
	if c.ActiveCap <= 0 {
		c.ActiveCap = 16384
	}
	if c.DoneCap <= 0 {
		c.DoneCap = 256
	}
	if c.Events <= 0 {
		c.Events = 1024
	}
	return c
}

const traceShards = 16

type traceShard struct {
	mu sync.Mutex
	m  map[uint64]*Trace
}

// Recorder is the flight recorder. All methods are safe on a nil
// receiver (no-ops / zero values), so callers thread a possibly-nil
// *Recorder without guards. All methods are safe for concurrent use.
type Recorder struct {
	cfg    Config
	slowNS int64

	// Event ring: writers claim a slot with one atomic add and publish
	// the event with one atomic pointer store; readers snapshot the
	// sequence and collect whatever slots still hold in-range events.
	// No locks, no torn reads (each slot is a whole-pointer swap).
	ring []atomic.Pointer[Event]
	mask uint64
	seq  atomic.Uint64

	evCounts map[string]*atomic.Int64
	evOther  atomic.Int64 // events with a kind outside EventKinds

	shards [traceShards]traceShard

	rotMu      sync.Mutex
	lastWindow uint64

	doneMu    sync.Mutex
	done      map[uint64]*Trace
	doneOrder []uint64

	started      atomic.Int64 // documents seen at the spout (traced or not)
	traced       atomic.Int64 // documents granted a trace slot
	keptSample   atomic.Int64
	keptSlow     atomic.Int64
	discarded    atomic.Int64
	activeCount  atomic.Int64
	droppedFull  atomic.Int64 // non-sampled docs refused a slot: table full
	lateSpans    atomic.Int64 // spans arriving after their trace finalized
	spansWritten atomic.Int64
}

// NewRecorder builds a Recorder; cfg fields at zero take defaults.
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	n := 1
	for n < cfg.Events {
		n <<= 1
	}
	r := &Recorder{
		cfg:      cfg,
		slowNS:   cfg.SlowMS * 1e6,
		ring:     make([]atomic.Pointer[Event], n),
		mask:     uint64(n - 1),
		evCounts: make(map[string]*atomic.Int64, len(EventKinds)),
		done:     make(map[uint64]*Trace),
	}
	for _, k := range EventKinds {
		r.evCounts[k] = new(atomic.Int64)
	}
	for i := range r.shards {
		r.shards[i].m = make(map[uint64]*Trace)
	}
	return r
}

// RecordEvent appends a timestamped event to the ring, overwriting the
// oldest entry when full.
func (r *Recorder) RecordEvent(kind, msg string) {
	if r == nil {
		return
	}
	e := &Event{At: telemetry.Now(), Kind: kind, Msg: msg}
	e.Seq = r.seq.Add(1)
	r.ring[e.Seq&r.mask].Store(e)
	if c, ok := r.evCounts[kind]; ok {
		c.Add(1)
	} else {
		r.evOther.Add(1)
	}
}

// Events returns the ring's current contents, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	hi := r.seq.Load()
	lo := uint64(1)
	if n := uint64(len(r.ring)); hi > n {
		lo = hi - n + 1
	}
	out := make([]Event, 0, hi-lo+1)
	for s := lo; s <= hi; s++ {
		if e := r.ring[s&r.mask].Load(); e != nil && e.Seq >= lo && e.Seq <= hi {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// EventCount returns how many events of the kind were ever recorded
// (including ones since overwritten in the ring).
func (r *Recorder) EventCount(kind string) int64 {
	if r == nil {
		return 0
	}
	if c, ok := r.evCounts[kind]; ok {
		return c.Load()
	}
	return r.evOther.Load()
}

func (r *Recorder) shard(id uint64) *traceShard {
	return &r.shards[id%traceShards]
}

// Begin registers one document arriving at the spout and returns its
// trace ID (the 1-based doc index) if the document is traced, or 0 if
// not. ingest is the document's telemetry.Now stamp; Begin records the
// spout span. Call it from the spout only: window rotation piggybacks on
// the spout's document counter.
func (r *Recorder) Begin(ingest int64) uint64 {
	if r == nil || r.cfg.Sample <= 0 {
		return 0
	}
	id := uint64(r.started.Add(1))
	r.maybeRotate(id)
	sampled := (id-1)%uint64(r.cfg.Sample) == 0
	if !sampled && r.activeCount.Load() >= int64(r.cfg.ActiveCap) {
		r.droppedFull.Add(1)
		return 0
	}
	t := &Trace{
		ID:      id,
		Sampled: sampled,
		Ingest:  ingest,
		Spans:   []Span{{Stage: StageSpout, Start: ingest, End: ingest, Count: 1}},
		last:    ingest,
	}
	sh := r.shard(id)
	sh.mu.Lock()
	sh.m[id] = t
	sh.mu.Unlock()
	r.activeCount.Add(1)
	r.traced.Add(1)
	r.spansWritten.Add(1)
	return id
}

// Span records one stage observation for trace id. Repeat observations
// of the same stage merge: Start keeps the first, End keeps the max,
// Count increments. id 0 (untraced document) is a no-op.
func (r *Recorder) Span(id uint64, stage string, start, end int64) {
	if r == nil || id == 0 {
		return
	}
	if end < start {
		end = start
	}
	sh := r.shard(id)
	sh.mu.Lock()
	t, ok := sh.m[id]
	if !ok {
		sh.mu.Unlock()
		r.lateSpans.Add(1)
		return
	}
	merged := false
	for i := range t.Spans {
		if t.Spans[i].Stage == stage {
			if end > t.Spans[i].End {
				t.Spans[i].End = end
			}
			t.Spans[i].Count++
			merged = true
			break
		}
	}
	if !merged {
		t.Spans = append(t.Spans, Span{Stage: stage, Start: start, End: end, Count: 1})
	}
	if end > t.last {
		t.last = end
	}
	sh.mu.Unlock()
	if !merged {
		r.spansWritten.Add(1)
	}
}

// maybeRotate finalizes traces once the spout has moved two full windows
// past them: when document id opens window w, every trace from window
// w-2 or older is decided (retained or discarded). The one-window grace
// lets in-flight spans land before the verdict.
func (r *Recorder) maybeRotate(id uint64) {
	w := (id - 1) / uint64(r.cfg.Window)
	if w < 2 {
		return
	}
	r.rotMu.Lock()
	if w <= r.lastWindow {
		r.rotMu.Unlock()
		return
	}
	r.lastWindow = w
	r.rotMu.Unlock()
	r.finalizeThrough((w - 1) * uint64(r.cfg.Window))
}

// FlushAll finalizes every active trace immediately, ignoring the
// rotation grace. A drained run calls it: no later document opens the
// windows that would decide its last traces.
func (r *Recorder) FlushAll() {
	if r == nil {
		return
	}
	r.finalizeThrough(^uint64(0))
}

// finalizeThrough removes every active trace with ID <= cut and decides
// its fate: head-sampled traces are always retained; of the rest, the
// slowest K at or above the slow threshold survive; everything else is
// discarded.
func (r *Recorder) finalizeThrough(cut uint64) {
	var batch []*Trace
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for id, t := range sh.m {
			if id <= cut {
				batch = append(batch, t)
				delete(sh.m, id)
			}
		}
		sh.mu.Unlock()
	}
	if len(batch) == 0 {
		return
	}
	r.activeCount.Add(int64(-len(batch)))

	var keep []*Trace
	var slow []*Trace
	for _, t := range batch {
		if t.Sampled {
			t.Retained = "sample"
			keep = append(keep, t)
		} else if t.Duration() >= r.slowNS {
			slow = append(slow, t)
		} else {
			r.discarded.Add(1)
		}
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].Duration() > slow[j].Duration() })
	for i, t := range slow {
		if i < r.cfg.SlowK {
			t.Retained = "slow"
			keep = append(keep, t)
		} else {
			r.discarded.Add(1)
		}
	}

	r.doneMu.Lock()
	for _, t := range keep {
		t.sortSpans()
		if t.Retained == "sample" {
			r.keptSample.Add(1)
		} else {
			r.keptSlow.Add(1)
		}
		if _, dup := r.done[t.ID]; !dup {
			r.done[t.ID] = t
			r.doneOrder = append(r.doneOrder, t.ID)
		}
	}
	for len(r.doneOrder) > r.cfg.DoneCap {
		delete(r.done, r.doneOrder[0])
		r.doneOrder = r.doneOrder[1:]
	}
	r.doneMu.Unlock()
}

// TraceSummary is the /debug/traces list entry.
type TraceSummary struct {
	ID         uint64 `json:"id"`
	Sampled    bool   `json:"sampled"`
	Retained   string `json:"retained,omitempty"` // "" = still active
	Spans      int    `json:"spans"`
	Complete   bool   `json:"complete"`
	DurationUS int64  `json:"duration_us"`
}

func summarize(t *Trace) TraceSummary {
	return TraceSummary{
		ID:         t.ID,
		Sampled:    t.Sampled,
		Retained:   t.Retained,
		Spans:      len(t.Spans),
		Complete:   t.Complete(),
		DurationUS: t.Duration() / 1e3,
	}
}

// Traces returns summaries of retained traces (newest first) followed by
// currently active ones, capped at limit (<=0 means 256).
func (r *Recorder) Traces(limit int) []TraceSummary {
	if r == nil {
		return nil
	}
	if limit <= 0 {
		limit = 256
	}
	out := make([]TraceSummary, 0, limit)
	r.doneMu.Lock()
	for i := len(r.doneOrder) - 1; i >= 0 && len(out) < limit; i-- {
		if t, ok := r.done[r.doneOrder[i]]; ok {
			out = append(out, summarize(t))
		}
	}
	r.doneMu.Unlock()
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, t := range sh.m {
			if len(out) >= limit {
				break
			}
			out = append(out, summarize(t))
		}
		sh.mu.Unlock()
	}
	return out
}

// TraceByID returns a copy of the trace (active or retained) with spans
// in pipeline order.
func (r *Recorder) TraceByID(id uint64) (Trace, bool) {
	if r == nil || id == 0 {
		return Trace{}, false
	}
	var found *Trace
	sh := r.shard(id)
	sh.mu.Lock()
	if t, ok := sh.m[id]; ok {
		cp := *t
		cp.Spans = append([]Span(nil), t.Spans...)
		found = &cp
	}
	sh.mu.Unlock()
	if found == nil {
		r.doneMu.Lock()
		if t, ok := r.done[id]; ok {
			cp := *t
			cp.Spans = append([]Span(nil), t.Spans...)
			found = &cp
		}
		r.doneMu.Unlock()
	}
	if found == nil {
		return Trace{}, false
	}
	found.sortSpans()
	return *found, true
}

// Stats is a snapshot of the recorder's counters for metric export.
type Stats struct {
	DocsSeen       int64 // documents stamped at the spout
	TracesStarted  int64 // documents granted a trace slot
	KeptSample     int64
	KeptSlow       int64
	Discarded      int64
	Active         int64 // traces currently provisional
	Retained       int64 // traces currently held in the done store
	DroppedFull    int64 // docs refused a slot because the table was full
	LateSpans      int64
	SpansWritten   int64
	EventsRecorded int64 // total events ever recorded
}

// Snapshot returns current counter values; zero-valued on nil.
func (r *Recorder) Snapshot() Stats {
	if r == nil {
		return Stats{}
	}
	r.doneMu.Lock()
	retained := int64(len(r.doneOrder))
	r.doneMu.Unlock()
	return Stats{
		DocsSeen:       r.started.Load(),
		TracesStarted:  r.traced.Load(),
		KeptSample:     r.keptSample.Load(),
		KeptSlow:       r.keptSlow.Load(),
		Discarded:      r.discarded.Load(),
		Active:         r.activeCount.Load(),
		Retained:       retained,
		DroppedFull:    r.droppedFull.Load(),
		LateSpans:      r.lateSpans.Load(),
		SpansWritten:   r.spansWritten.Load(),
		EventsRecorded: int64(r.seq.Load()),
	}
}
