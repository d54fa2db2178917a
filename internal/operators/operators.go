// Package operators implements the paper's operator topology (Figure 2,
// Sections 3, 6.2 and 7) on top of the storm substrate:
//
//	Source ─shuffle→ Disseminator ─direct→ Calculator ─fields(route)→ Tracker ─shuffle→ Trend
//	  └─fields(tagset)→ Partitioner ─→ Merger ─all→ Disseminator
//	 Disseminator ─all→ Partitioner (repartition requests)
//	 Disseminator ─→ Merger (Single-Addition requests)
//	 Merger ─all→ Disseminator (partitions, Single-Addition results)
//
// The paper's Parser is a step of the Source, not a task of its own. The
// Trend task exists only with Config.Trend.
//
// Tuples carry one typed message in Values[0]; the Stream field names the
// logical stream.
package operators

import (
	"fmt"
	"math"

	"repro/internal/flight"
	"repro/internal/jaccard"
	"repro/internal/partition"
	"repro/internal/storm"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/telemetry"
	"repro/internal/trend"
)

// Stream names used by the topology.
const (
	StreamDoc         = "doc"         // Source → Disseminator, Partitioner
	StreamPartial     = "partial"     // Partitioner → Merger
	StreamPartitions  = "partitions"  // Merger → Disseminator
	StreamRepartition = "repartition" // Disseminator → Partitioner
	StreamAddition    = "addition"    // Disseminator → Merger
	StreamAdditionRes = "addition-r"  // Merger → Disseminator
	StreamNotify      = "notify"      // Disseminator → Calculator
	StreamCoeff       = "coeff"       // Calculator → Tracker
	StreamTrend       = "trend"       // Tracker → Trend
)

// DocMsg is a parsed document: arrival time plus its canonical tagset.
// Ingest is the monotonic process-local ingest stamp (telemetry.Now at the
// Source), carried through the pipeline so downstream operators can record
// doc→stage latencies; it is 0 for messages injected without a Source
// (unit tests driving bolts directly).
type DocMsg struct {
	Time   stream.Millis
	Tags   tagset.Set
	Ingest int64
	// Trace is the document's flight-recorder trace ID (0: untraced).
	// Operators that do per-document work record a span against it.
	Trace uint64
}

// PartialMsg is one Partitioner's contribution to a repartition epoch: the
// disjoint sets (DS) or locally-built partitions (set-cover algorithms) of
// its window, each flattened to a weighted tagset.
type PartialMsg struct {
	Epoch int
	Sets  []stream.WeightedSet
}

// PartitionsMsg announces freshly merged partitions together with the
// reference quality statistics the Disseminator monitors against
// (Section 7.2).
type PartitionsMsg struct {
	Epoch   int
	Parts   []partition.Partition
	Quality partition.Quality
}

// AdditionReq asks the Merger to place an uncovered tagset (Section 7.1).
type AdditionReq struct {
	Tags tagset.Set
}

// AdditionRes tells the Disseminator which partition (Calculator index)
// an added tagset went to.
type AdditionRes struct {
	Tags tagset.Set
	Part int
}

// RepartitionReq asks the Partitioners for fresh partitions.
type RepartitionReq struct {
	Epoch int
}

// NotifyMsg is a notification to one Calculator: the subset of a document's
// tags that the Calculator is assigned. Ingest propagates the document's
// ingest stamp (see DocMsg). It travels as an element of a NotifyBatch.
type NotifyMsg struct {
	Time   stream.Millis
	Tags   tagset.Set
	Ingest int64
	Trace  uint64 // flight-recorder trace ID of the source document (0: untraced)
}

// NotifyBatch is the one Disseminator→Calculator message: the notifications
// buffered for one Calculator, in routing order, in a single mailbox
// delivery. The Disseminator ships one per involved Calculator every
// Config.NotifyBatch notified documents (plus on partition install and
// Cleanup), so mailbox traffic scales with batches instead of documents;
// with Config.NotifyBatch = 0 every batch holds one notification.
type NotifyBatch struct {
	Msgs []NotifyMsg
}

// CoeffBatch is one Calculator's report for one period: a single tuple
// carrying a coefficient slice, so a flush of n coefficients costs one
// emission and one Tracker mailbox delivery instead of n. With Tracker
// parallelism > 1 a period flush is grouped in place into per-Tracker-task
// sub-batches (every coefficient routed by the fold of its tags, routeOf),
// capped windows of the flush's one array, and Route carries the
// destination task index so CoeffKey fields grouping delivers each
// sub-batch to the task owning its tagsets. Coeffs come in the flush's order
// (jaccard.CounterTable.AppendCoefficients): unspecified but deterministic,
// and not sorted; the Tracker needs no order.
//
// Once emitted, Coeffs belong to the receiving Tracker task until it has
// ingested the batch: the emitter never reads or writes them again, and the
// Tracker compacts its accepted reports into their prefix when it has an
// archive or a Trend feed; with neither it only reads them. The array and
// the tags are lent, not given: a flush's batches carry its report buffer
// (reportBuf), which goes back to the Calculator for a later flush once
// every batch and TrendBatch reading it has been consumed, so no consumer
// keeps a Coefficient or its Tags past its Execute. A batch built without
// a flush (tests, the layer replay, ImportState) carries no buffer and is
// never reused. A flush's batches also carry each coefficient's fold
// (folds, a window of the buffer's fold column beside Coeffs), which the
// Tracker groups its shards and indexes its tables by; a batch built
// without a flush carries none, and the Tracker folds its tagsets once at
// intake.
type CoeffBatch struct {
	Period int64
	Route  uint64
	Coeffs []jaccard.Coefficient
	// Ingest is the ingest stamp of the document whose arrival triggered
	// this flush (0 for Cleanup flushes), closing the doc→tracker-accept
	// latency trace when the Tracker ingests the batch.
	Ingest int64
	// Trace is the flight-recorder trace ID of that same triggering
	// document (0: untraced).
	Trace uint64

	folds []tagset.Fold // the fold of each Coeffs[i]'s tags; nil when built without a flush
	buf   *reportBuf    // the flush's report buffer, one reference of it; nil when built without a flush
}

// TrendBatch carries the reports of one CoeffBatch that changed the
// Tracker's tables — fresh (period, tagset) values and CN upgrades, in
// arrival order — towards the Trend operator, so the stream carries exactly
// the values the tables converge to at one tuple per ingested batch. Coeffs
// is a prefix of the CoeffBatch's own array, where the Tracker compacted
// the accepted reports; once emitted it belongs to the receiving Trend
// task until Execute returns, and it holds one reference of the flush's
// report buffer, which the Trend task releases after observing it. The
// batch carries no fold column: the Trend detector keys its own shards.
type TrendBatch struct {
	Period int64
	Coeffs []jaccard.Coefficient
	Trace  uint64 // flight-recorder trace ID of the triggering document (0: untraced)

	buf *reportBuf // as CoeffBatch.buf
}

// Config carries the paper's experiment parameters (Section 8.1).
type Config struct {
	K         int                 // partitions / Calculators
	P         int                 // Partitioner instances
	Algorithm partition.Algorithm // DS, SCC, SCL or SCI
	Thr       float64             // repartition threshold (0.2 or 0.5)

	SN          int           // Single-Addition occurrence threshold (paper: 3)
	StatsEvery  int           // quality statistics batch size z (paper: 1000)
	ReportEvery stream.Millis // Calculator reporting period y (paper: 5 min)
	WindowSpan  stream.Millis // Partitioner window W (paper: 5 min)
	MaxTags     int           // tag cap of the Source's Parser step (paper observes < 10)
	Seed        int64         //vet:ok configparity -- SCI randomness; every int64 is a valid seed

	// WindowCount switches the Partitioners to a count-based sliding
	// window of the given capacity instead of the time-based WindowSpan
	// (Section 6.2 allows either).
	WindowCount int

	// AutoScaleLoad enables topology scaling (Section 7.3): when > 0 the
	// Merger sizes the number of active partitions as
	// ceil(windowLoad / AutoScaleLoad), capped at K. Only Calculators
	// assigned a partition are indexed by the Disseminator and receive
	// documents; the rest idle.
	AutoScaleLoad int64

	// KeepPeriods bounds the Tracker's memory for long-running service
	// deployments: when > 0 only the most recent KeepPeriods reporting
	// periods are retained (older coefficient reports are pruned as new
	// periods open). 0 — the batch/figure default — keeps everything.
	KeepPeriods int

	// NoSeries disables the per-batch figure time series (CommSeries,
	// LoadSeries), whose memory grows with the run. Service deployments
	// (cmd/tagcorrd) set it; the scalar statistics are unaffected.
	NoSeries bool //vet:ok configparity -- free toggle; both values are valid

	// TrackerShards sets how many lock shards the Tracker splits its
	// retained coefficients into (rounded up to a power of two); reports
	// lock only the shard owning the route word of their tagset's fold
	// (routeOf). 0 uses the default (16).
	TrackerShards int

	// TrackerTopK bounds the incrementally maintained top-k heaps, one per
	// shard and period: Tracker.TopK(k) with k at or below the bound is
	// answered from the maintained heaps without scanning the retained
	// coefficients. 0 uses the default (128). The query service raises it
	// to its own top-k size on startup.
	TrackerTopK int

	// EvictedPairs is the capacity of the Tracker's LRU of coefficients
	// evicted by KeepPeriods pruning, letting point lookups (the /pairs
	// endpoint) answer for pairs whose reporting periods were pruned. 0 —
	// the batch default — disables the LRU.
	EvictedPairs int

	// SpoutPending overrides the concurrent executor's spout throttle (the
	// maximum number of unprocessed tuples in flight before spouts block).
	// 0 — the default — uses the substrate's built-in 4096.
	SpoutPending int

	// TrackerTasks is the Tracker operator's parallelism (0: default 1).
	// All tasks share the one thread-safe Tracker instance (its shard
	// locks, atomics and period registry already support concurrent
	// reporters); tuples are fields-grouped on the tagset's fold
	// (CoeffKey), so every report of one tagset passes through the same
	// task and per-tagset arrival order — what CN-upgrade dedup and
	// StreamTrend emission rely on — is preserved. Calculators split each
	// period flush into per-task sub-batches by that fold.
	TrackerTasks int

	// NotifyBatch batches the Disseminator→Calculator notification stream:
	// the Disseminator buffers per-Calculator notifications and flushes
	// them as one NotifyBatch tuple per Calculator every NotifyBatch
	// notified documents (plus on partition install and Cleanup). 0 — the
	// batch default — flushes after every notified document: one tuple per
	// (document × involved Calculator).
	NotifyBatch int

	// Trend enables the streaming trend-detection subsystem: the Tracker
	// emits the accepted reports of every ingested batch, as one
	// TrendBatch, to a Trend operator feeding a sharded trend.Stream
	// detector, and Snapshot carries a Trends view. Off — the batch
	// default — adds no operator and no extra dataflow.
	Trend bool //vet:ok configparity -- free toggle; both values are valid

	// TrendAlpha is the detector's exponential-smoothing factor
	// (0: default 0.4); TrendMinSupport drops reports with a smaller
	// intersection counter (0: default 5); TrendTopK bounds the maintained
	// per-period top-trends heaps (0: default 64); TrendThreshold is the
	// minimum score pushed to event subscribers (0 publishes every scored
	// event). The detector's per-period state obeys KeepPeriods like the
	// Tracker.
	TrendAlpha      float64
	TrendMinSupport int64
	TrendTopK       int
	TrendThreshold  float64

	// ArchiveDir enables the durability subsystem (internal/archive): the
	// Tracker and the trend detector stream accepted state into per-period
	// segment files under this directory, and the pipeline writes periodic
	// CRC-verified checkpoints from which core.Restore recovers after a
	// crash or restart. Empty — the batch default — archives nothing.
	// Requires ArchiveDict.
	ArchiveDir string

	// ArchiveDict is the tag dictionary the input stream is interned with;
	// checkpoints persist its contents so a restarted process reproduces
	// the same Tag identifiers. Required when ArchiveDir is set.
	ArchiveDict *tagset.Dictionary

	// CheckpointEvery writes a checkpoint every N freshly opened reporting
	// periods (0: every period). Only meaningful with ArchiveDir.
	CheckpointEvery int

	// ArchiveBudgetBytes bounds the archive directory's total size: the
	// background compactor coalesces runs of pruned per-period segments
	// into compacted files and, past the budget, ages out the oldest
	// compacted files (oldest history first) until the directory fits.
	// 0 keeps everything. Requires ArchiveDir and KeepPeriods > 0 — only
	// periods behind the retention pruning floor are sealed forever and
	// thus safe to compact.
	ArchiveBudgetBytes int64

	// Stages carries the pipeline's end-to-end stage-latency histograms.
	// When set, the Source stamps every document with a monotonic ingest
	// time and the Partitioner, Calculator and Tracker record their
	// doc→stage latencies into it. nil — the default — traces nothing.
	Stages *Stages //vet:ok configparity -- optional tracing sink; nil and any non-nil value are valid

	// Flight is the pipeline's flight recorder: when set, the Source
	// samples per-document span traces into it and the operators record
	// operational events (repartitions, retention prunes). nil — the
	// default — records nothing; every recording call is nil-safe.
	Flight *flight.Recorder //vet:ok configparity -- optional observability sink; nil and any non-nil recorder are valid
}

// DefaultConfig returns the paper's default parameter setting: P=10, k=10,
// thr=0.5, sn=3, z=1000, 5-minute reporting and windows.
func DefaultConfig() Config {
	return Config{
		K:           10,
		P:           10,
		Algorithm:   partition.DS,
		Thr:         0.5,
		SN:          3,
		StatsEvery:  1000,
		ReportEvery: stream.Minutes(5),
		WindowSpan:  stream.Minutes(5),
		MaxTags:     10,
		Seed:        1,
	}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("operators: K = %d", c.K)
	case c.P < 1:
		return fmt.Errorf("operators: P = %d", c.P)
	case !c.Algorithm.Valid():
		return fmt.Errorf("operators: algorithm %q", c.Algorithm)
	case c.Thr < 0 || math.IsNaN(c.Thr):
		return fmt.Errorf("operators: thr = %g", c.Thr)
	case c.SN < 1:
		return fmt.Errorf("operators: sn = %d", c.SN)
	case c.StatsEvery < 1:
		return fmt.Errorf("operators: statsEvery = %d", c.StatsEvery)
	case c.ReportEvery <= 0:
		return fmt.Errorf("operators: reportEvery = %d", c.ReportEvery)
	case c.WindowSpan <= 0:
		return fmt.Errorf("operators: windowSpan = %d", c.WindowSpan)
	case c.MaxTags < 1:
		return fmt.Errorf("operators: maxTags = %d", c.MaxTags)
	case c.WindowCount < 0:
		return fmt.Errorf("operators: windowCount = %d", c.WindowCount)
	case c.AutoScaleLoad < 0:
		return fmt.Errorf("operators: autoScaleLoad = %d", c.AutoScaleLoad)
	case c.KeepPeriods < 0:
		return fmt.Errorf("operators: keepPeriods = %d", c.KeepPeriods)
	case c.TrackerShards < 0:
		return fmt.Errorf("operators: trackerShards = %d", c.TrackerShards)
	case c.TrackerTopK < 0:
		return fmt.Errorf("operators: trackerTopK = %d", c.TrackerTopK)
	case c.EvictedPairs < 0:
		return fmt.Errorf("operators: evictedPairs = %d", c.EvictedPairs)
	case c.SpoutPending < 0:
		return fmt.Errorf("operators: spoutPending = %d", c.SpoutPending)
	case c.TrackerTasks < 0:
		return fmt.Errorf("operators: trackerTasks = %d", c.TrackerTasks)
	case c.NotifyBatch < 0:
		return fmt.Errorf("operators: notifyBatch = %d", c.NotifyBatch)
	case c.TrendAlpha < 0 || c.TrendAlpha > 1 || math.IsNaN(c.TrendAlpha):
		return fmt.Errorf("operators: trendAlpha = %g", c.TrendAlpha)
	case c.TrendMinSupport < 0:
		return fmt.Errorf("operators: trendMinSupport = %d", c.TrendMinSupport)
	case c.TrendTopK < 0:
		return fmt.Errorf("operators: trendTopK = %d", c.TrendTopK)
	case c.TrendThreshold < 0 || c.TrendThreshold > 1 || math.IsNaN(c.TrendThreshold):
		return fmt.Errorf("operators: trendThreshold = %g", c.TrendThreshold)
	case c.CheckpointEvery < 0:
		return fmt.Errorf("operators: checkpointEvery = %d", c.CheckpointEvery)
	case c.CheckpointEvery > 0 && c.ArchiveDir == "":
		return fmt.Errorf("operators: checkpointEvery = %d without ArchiveDir (checkpoints need an archive to live in)", c.CheckpointEvery)
	case c.ArchiveDir != "" && c.ArchiveDict == nil:
		return fmt.Errorf("operators: ArchiveDir requires ArchiveDict (the stream's tag dictionary)")
	case c.EvictedPairs > 0 && c.KeepPeriods == 0:
		return fmt.Errorf("operators: evictedPairs = %d with keepPeriods = 0 (nothing is ever pruned into the LRU)", c.EvictedPairs)
	case c.ArchiveBudgetBytes < 0:
		return fmt.Errorf("operators: archiveBudgetBytes = %d", c.ArchiveBudgetBytes)
	case c.ArchiveBudgetBytes > 0 && c.ArchiveDir == "":
		return fmt.Errorf("operators: archiveBudgetBytes = %d without ArchiveDir (no archive to bound)", c.ArchiveBudgetBytes)
	case c.ArchiveBudgetBytes > 0 && c.KeepPeriods == 0:
		return fmt.Errorf("operators: archiveBudgetBytes = %d with keepPeriods = 0 (without retention no period is ever sealed, so nothing can be compacted or aged out)", c.ArchiveBudgetBytes)
	}
	return nil
}

// TrendStreamConfig maps the pipeline configuration to the streaming
// detector's, filling the documented defaults for unset fields.
func (c Config) TrendStreamConfig() trend.StreamConfig {
	sc := trend.StreamConfig{
		Alpha:       c.TrendAlpha,
		MinSupport:  c.TrendMinSupport,
		MaxTracked:  1 << 18,
		TopK:        c.TrendTopK,
		Threshold:   c.TrendThreshold,
		KeepPeriods: c.KeepPeriods,
	}
	if sc.Alpha == 0 {
		sc.Alpha = 0.4
	}
	if sc.MinSupport == 0 {
		sc.MinSupport = 5
	}
	return sc
}

// Stages bundles the end-to-end stage-latency histograms: time from
// document ingest at the Source until (a) the Partitioner absorbs it into
// its window, (b) a Calculator scores one of its notifications, and (c)
// the Tracker accepts the coefficient batch whose flush it triggered.
// The histograms are shared lock-free telemetry histograms, so one Stages
// value serves every task of every operator.
type Stages struct {
	DocPartition     *telemetry.Histogram
	DocCoefficient   *telemetry.Histogram
	DocTrackerAccept *telemetry.Histogram
}

// NewStages returns a Stages with fresh histograms.
func NewStages() *Stages {
	return &Stages{
		DocPartition:     telemetry.NewHistogram(),
		DocCoefficient:   telemetry.NewHistogram(),
		DocTrackerAccept: telemetry.NewHistogram(),
	}
}

// TagsetKey hashes a document's full tagset for fields grouping, so equal
// tagsets always reach the same Partitioner instance (Section 6.2). It keeps
// the FNV-1a Set.KeyHash, not the fold the coefficient path routes by:
// which Partitioner window sees which document decides the partitions, so
// a change of this hash moves answers when there is more than one
// Partitioner.
func TagsetKey(t storm.Tuple) uint64 {
	return t.Values[0].(DocMsg).Tags.KeyHash()
}

// CoeffKey routes Calculator→Tracker tuples for fields grouping with
// Tracker parallelism > 1: a CoeffBatch carries its destination task index
// in Route (the Calculator already grouped the coefficients by
// routeOf(fold) % tasks, so Route % tasks == Route).
func CoeffKey(t storm.Tuple) uint64 {
	return t.Values[0].(CoeffBatch).Route
}

// groupByRoute reorders coeffs in place so that the coefficients of each
// consumer task are contiguous and keep their order, and returns each
// task's part as a window of coeffs capped at its end. route[i] is
// coeffs[i]'s task, below tasks; it is overwritten. folds is a column
// beside coeffs (folds[i] belongs to coeffs[i]) and is reordered with it,
// so each part's folds are the same window of folds. A counting pass gives
// every coefficient its destination, and the entries then move along the
// cycles of that permutation, each swap putting one in its place. This is
// how a period flush is split for the Tracker tasks, without a copy.
func groupByRoute(coeffs []jaccard.Coefficient, folds []tagset.Fold, route []int32, tasks int) [][]jaccard.Coefficient {
	next := make([]int32, tasks)
	for _, g := range route {
		next[g]++
	}
	parts := make([][]jaccard.Coefficient, tasks)
	lo := int32(0)
	for g, n := range next {
		parts[g] = coeffs[lo : lo+n : lo+n]
		next[g] = lo
		lo += n
	}
	for i, g := range route { // route[i] becomes coeffs[i]'s destination
		route[i] = next[g]
		next[g]++
	}
	for i := range coeffs {
		for d := route[i]; d != int32(i); d = route[i] {
			coeffs[i], coeffs[d] = coeffs[d], coeffs[i]
			folds[i], folds[d] = folds[d], folds[i]
			route[i], route[d] = route[d], d
		}
	}
	return parts
}

// routeOf is the word a coefficient is routed by, the high word of its
// tagset's fold: its Tracker task (routeOf % tasks) and its Tracker shard
// (routeOf & mask) both come from it, so one tagset always maps to one
// task and one shard, and the shards of a Tracker task are its own when
// the task count divides the shard count.
// The index fingerprint of a fold (tagset.FoldIndex) reads only the low
// word, so the route and the bucket are independent.
func routeOf(f tagset.Fold) uint64 { return f.A >> 32 }

// Source adapts any document iterator (generator, slice, JSONL reader) to a
// storm spout, and does the paper's Parser step on the way (Section 6.2):
// untagged documents are dropped and oversized tagsets cut to maxTags (the
// paper notes tweets carry fewer than 10 tags). The next function returns
// false when the stream ends.
type Source struct {
	next    func() (stream.Document, bool)
	maxTags int
	flight  *flight.Recorder
}

// SetFlight attaches the flight recorder: every emitted document gets a
// Begin call (which decides sampling and assigns the trace ID carried in
// DocMsg.Trace). Call before the run starts.
func (s *Source) SetFlight(rec *flight.Recorder) { s.flight = rec }

// NewSource wraps next into a spout that caps tagsets at maxTags.
func NewSource(next func() (stream.Document, bool), maxTags int) *Source {
	return &Source{next: next, maxTags: maxTags}
}

// Open implements storm.Spout.
func (s *Source) Open(*storm.TaskContext) {}

// NextTuple implements storm.Spout. A dropped document emits nothing and
// is never traced: the drop comes before the flight recorder's Begin.
func (s *Source) NextTuple(out storm.Collector) bool {
	d, ok := s.next()
	if !ok {
		return false
	}
	if d.Tags.IsEmpty() {
		return true
	}
	if d.Tags.Len() > s.maxTags {
		d.Tags = tagset.New(d.Tags[:s.maxTags]...)
	}
	ingest := telemetry.Now()
	trace := s.flight.Begin(ingest) // nil-safe; 0 when untraced
	out.Emit(storm.Tuple{Stream: StreamDoc, Values: []interface{}{DocMsg{Time: d.Time, Tags: d.Tags, Ingest: ingest, Trace: trace}}})
	return true
}
