package core

import (
	"math"
	"sync"
	"time"

	"repro/internal/jaccard"
	"repro/internal/operators"
	"repro/internal/partition"
	"repro/internal/storm"
	"repro/internal/telemetry"
	"repro/internal/trend"
)

// Snapshot is a consistent point-in-time view of a pipeline while (or
// after) it runs: the current top-k correlations, communication and load
// statistics, the installed partitions, and the raw dataflow counters.
// Every slice and map is a copy owned by the caller, with one caveat: the
// tagset.Set values inside coefficients and partitions share their backing
// arrays with live operator state. Sets are immutable by the tagset
// package's contract, so reading them is always safe — but they must not
// be mutated in place.
//
// Unlike Result, which is only available once the stream has drained, a
// Snapshot can be taken at any moment of a run started with Start: all the
// state it reads is guarded by the operators' own locks.
type Snapshot struct {
	// TakenAt stamps the moment the Tracker's consistent pass ran,
	// carrying Go's monotonic clock reading: time.Since(TakenAt) is the
	// snapshot's age regardless of wall-clock adjustments. Under CPU
	// saturation the serving layer's refresh loop can stall on operator
	// locks; the stamp (surfaced as snapshot_age_ms in /stats) makes that
	// staleness observable instead of silently serving old data as fresh.
	TakenAt time.Time

	// Stats holds the scalar statistics and structural counters.
	Stats

	// Partitions is the Merger's current tag-to-Calculator assignment
	// (nil before the first merge).
	Partitions []partition.Partition

	// TopK holds the highest-Jaccard coefficients reported so far across
	// all reporting periods, ordered by descending J (ties: descending CN,
	// then tagset key).
	TopK []jaccard.Coefficient

	// Trends is the streaming trend detector's live view (nil unless
	// Config.Trend is set): the top deviations of the newest scored
	// period. The detector's structural counters are Stats.TrendStats.
	Trends *TrendsView
}

// Stats is every scalar statistic and structural counter of a pipeline,
// read in one pass by Pipeline.stats. Snapshot and Result embed it, /stats
// serves it in this order under these names (the json tags are the one
// definition of that payload) and /metrics reads its scalar families from
// it, so a new statistic is one field, set in stats.
type Stats struct {
	// DocsProcessed counts the documents the Disseminator has seen, those
	// the Source's Parser step kept; it is monotone over the lifetime of a
	// run. DocsBeforeInstall counts the prefix that arrived before the
	// first partitions were installed.
	DocsProcessed     int64 `json:"docs_processed"`
	DocsBeforeInstall int64 `json:"docs_before_install"`
	NotifiedDocs      int64 `json:"notified_docs"`
	Notifications     int64 `json:"notifications"`
	UncoveredDocs     int64 `json:"uncovered_docs"`

	// Communication is notifications per notified document so far
	// (Section 8.2.1); LoadGini the Gini coefficient of cumulative
	// per-Calculator notifications so far (Section 8.2.2).
	Communication float64 `json:"communication"`
	LoadGini      float64 `json:"load_gini"`
	PerCalculator []int64 `json:"per_calculator"`

	// Epoch is the highest installed partition epoch (0 before bootstrap);
	// RepartitionPending reports an outstanding repartition request.
	Epoch              int  `json:"epoch"`
	RepartitionPending bool `json:"repartition_pending"`
	Repartitions       int  `json:"repartitions"`
	RepartitionsComm   int  `json:"repartitions_comm"`
	RepartitionsLoad   int  `json:"repartitions_load"`
	RepartitionsBoth   int  `json:"repartitions_both"`
	SingleAdditions    int  `json:"single_additions"`
	Merges             int  `json:"merges"`

	// Periods lists the reporting period ids seen so far;
	// CoefficientsReceived / CoefficientsDuplicate are the Tracker's raw
	// intake counters.
	Periods               []int64 `json:"periods"`
	CoefficientsReceived  int64   `json:"coefficients_received"`
	CoefficientsDuplicate int64   `json:"coefficients_duplicate"`

	// TrackerTasks and NotifyBatch echo the pipeline's hot-path fan-out
	// configuration: the Tracker operator's parallelism (>= 1) and the
	// Disseminator→Calculator notification batch size (0: per-document).
	TrackerTasks int `json:"tracker_tasks"`
	NotifyBatch  int `json:"notify_batch"`

	// Checkpoints / CheckpointStallMS / CheckpointWriteMS meter the
	// durability path: completed checkpoint writes, the cumulative hot-path
	// milliseconds spent cutting snapshots (the period hook runs on a
	// Tracker task's goroutine; the encode + fsync happen on a dedicated
	// writer goroutine), and the cumulative background write milliseconds.
	// Zero with archiving off.
	Checkpoints       int64 `json:"checkpoints"`
	CheckpointStallMS int64 `json:"checkpoint_stall_ms"`
	CheckpointWriteMS int64 `json:"checkpoint_write_ms"`

	// ArchiveCompactions / ArchiveCompactedPeriods / ArchiveAgedOutPeriods
	// / ArchiveBytes meter the archive's background compaction: compacted
	// files written, raw period segments folded into them, periods deleted
	// under the disk budget, and the archive directory's size after the
	// compactor's last pass. Zero without archiving + retention.
	// ArchiveAgedOutBytes, the bytes those deletions freed, is on /metrics
	// only.
	ArchiveCompactions      int64 `json:"archive_compactions"`
	ArchiveCompactedPeriods int64 `json:"archive_compacted_periods"`
	ArchiveAgedOutPeriods   int64 `json:"archive_aged_out_periods"`
	ArchiveAgedOutBytes     int64 `json:"-"`
	ArchiveBytes            int64 `json:"archive_bytes"`

	// StageDocPartition / StageDocCoefficient / StageDocTrackerAccept
	// summarise the end-to-end stage-latency histograms: the time from a
	// document's ingest stamp at the Source until it reaches a
	// Partitioner's window, until its triggered coefficient flush leaves a
	// Calculator, and until the Tracker accepts that flush. Counts stay
	// zero on runs that inject tuples without ingest stamps. Full bucket
	// detail is on /metrics.
	StageDocPartition     StageLatency `json:"stage_doc_partition"`
	StageDocCoefficient   StageLatency `json:"stage_doc_coefficient"`
	StageDocTrackerAccept StageLatency `json:"stage_doc_tracker_accept"`

	// Tracker describes the Tracker's internal structure: shard count, the
	// incrementally maintained top-k heaps, retention pruning, and the
	// evicted-coefficient LRU. TrendStats is the same for the streaming
	// trend detector (nil, and absent from /stats, unless Config.Trend).
	Tracker    operators.TrackerStats `json:"tracker"`
	TrendStats *trend.StreamStats     `json:"trends,omitempty"`

	// EmittedByComponent / ReceivedByComponent are the storm substrate's
	// per-component dataflow counters.
	EmittedByComponent  map[string]int64 `json:"emitted_by_component"`
	ReceivedByComponent map[string]int64 `json:"received_by_component"`
}

// stats reads every pipeline counter once: the Disseminator's, the
// checkpoint and compactor counters, the storm per-component totals, the
// stage-latency summaries and the trend detector's stats, around the
// Tracker's period list and structural stats, which the caller takes from
// the Tracker pass that fits it. It is the only place that fills a Stats.
// Every operator guards what is read here with its own lock, so it is safe
// from any goroutine at any time between NewPipeline and the end of the
// process.
func (p *Pipeline) stats(periods []int64, ts operators.TrackerStats) Stats {
	ds := p.disseminator.SnapshotStats()
	epoch, pending := p.disseminator.Epoch()
	cs := p.CompactorStats()
	s := Stats{
		DocsProcessed:     ds.Docs,
		DocsBeforeInstall: ds.BeforePartition,
		NotifiedDocs:      ds.NotifiedDocs,
		Notifications:     ds.Notifications,
		UncoveredDocs:     ds.UncoveredDocs,
		Communication:     ds.Communication(),
		LoadGini:          ds.LoadGini(),
		PerCalculator:     ds.PerCalculator,

		Epoch:              epoch,
		RepartitionPending: pending,
		Repartitions:       ds.Repartitions,
		RepartitionsComm:   ds.CauseComm,
		RepartitionsLoad:   ds.CauseLoad,
		RepartitionsBoth:   ds.CauseBoth,
		SingleAdditions:    ds.AdditionsAsked,
		Merges:             p.merger.MergeCount(),

		Periods:               periods,
		CoefficientsReceived:  ts.Received,
		CoefficientsDuplicate: ts.Duplicates,
		TrackerTasks:          p.cfg.TrackerTasks,
		NotifyBatch:           p.cfg.NotifyBatch,

		Checkpoints:       p.ckptCount.Load(),
		CheckpointStallMS: time.Duration(p.ckptStallNS.Load()).Milliseconds(),
		CheckpointWriteMS: time.Duration(p.ckptWriteNS.Load()).Milliseconds(),

		ArchiveCompactions:      cs.Compactions,
		ArchiveCompactedPeriods: cs.CompactedPeriods,
		ArchiveAgedOutPeriods:   cs.AgedOutPeriods,
		ArchiveAgedOutBytes:     cs.AgedOutBytes,
		ArchiveBytes:            cs.DirBytes,

		StageDocPartition:     stageLatencyFrom(p.stages.DocPartition),
		StageDocCoefficient:   stageLatencyFrom(p.stages.DocCoefficient),
		StageDocTrackerAccept: stageLatencyFrom(p.stages.DocTrackerAccept),

		Tracker: ts,
	}
	s.EmittedByComponent, s.ReceivedByComponent = p.topo.Stats().Totals()
	if p.trends != nil {
		st := p.trends.StatsSnapshot()
		s.TrendStats = &st
	}
	return s
}

// liveStats is stats over the Tracker's cheapest pass, for the readers that
// want no top-k: the /metrics scrape and the end-of-run Result.
func (p *Pipeline) liveStats() Stats {
	return p.stats(p.tracker.Periods(), p.tracker.StatsSnapshot())
}

// Snapshot returns a live view of the pipeline with the given top-k size
// (k <= 0 returns every coefficient reported so far): one consistent pass
// over the Tracker — top-k, period list and structural stats read while the
// registry and every shard lock are held together, so a snapshot cannot
// pair a populated intake counter with an empty period list — plus stats.
// It is safe to call from any goroutine at any time between NewPipeline and
// the end of the process. The top-k view is read from the Tracker's
// incrementally maintained per-period heaps and older-period blocks (for k
// within the Tracker's top-k bound), so a snapshot's cost does not grow
// with the number of retained coefficients or periods.
func (p *Pipeline) Snapshot(k int) *Snapshot {
	top, periods, ts := p.tracker.ConsistentView(k)
	takenAt := time.Now()
	// The trends view is read before stats: the first Observe bumps the
	// scored counter before publishing its period, so a view with a latest
	// period always comes with TrendStats.Scored >= 1.
	var trends *TrendsView
	if p.trends != nil {
		trends = &TrendsView{}
		// Check the latest-period sentinel itself, not Scored, for the
		// same reason.
		if latest := p.trends.LatestPeriod(); latest != math.MinInt64 {
			trends.LatestPeriod = latest
			// Clamp to the detector's maintained heap bound so the view is
			// always served from the per-period heaps, never the
			// full-gather fallback — the Tracker top-k gets the same
			// treatment via EnsureTopKBound.
			if bound := p.trends.Config().TopK; k <= 0 || k > bound {
				k = bound
			}
			trends.Top = p.trends.TopTrends(latest, k)
		}
	}
	return &Snapshot{
		TakenAt:    takenAt,
		TopK:       top,
		Stats:      p.stats(periods, ts),
		Partitions: p.merger.PartitionsSnapshot(),
		Trends:     trends,
	}
}

// StageLatency summarises one end-to-end stage-latency histogram for the
// serving layer: sample count, median and tail quantiles, and the maximum,
// in milliseconds. The full bucket detail is on /metrics; this is the
// at-a-glance /stats rendering.
type StageLatency struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

func stageLatencyFrom(h *telemetry.Histogram) StageLatency {
	return StageLatency{
		Count: h.Count(),
		P50MS: float64(h.Quantile(0.50).Microseconds()) / 1e3,
		P99MS: float64(h.Quantile(0.99).Microseconds()) / 1e3,
		MaxMS: float64(time.Duration(h.MaxNS()).Microseconds()) / 1e3,
	}
}

// TrendsView is the Snapshot's rendering of the streaming trend detector:
// the highest-scoring deviations of the newest period a deviation was
// scored in. LatestPeriod is 0 until the first event is scored (reporting
// periods start at 1), and Top carries at most the detector's TrendTopK
// events (the maintained bound).
type TrendsView struct {
	LatestPeriod int64
	Top          []trend.Event
}

// Trends exposes the streaming trend detector (nil unless Config.Trend).
// Its methods are thread-safe, so live queries — the /trends point lookup,
// the /events subscription — may use it mid-run.
func (p *Pipeline) Trends() *trend.Stream { return p.trends }

// Tracker exposes the Tracker bolt; its read methods are thread-safe, so
// live queries (e.g. the HTTP pair lookup) may use it mid-run.
func (p *Pipeline) Tracker() *operators.Tracker { return p.tracker }

// Handle is a pipeline run in flight, returned by Start. Snapshots may be
// taken while it runs; Wait blocks until the stream drains and returns the
// final Result.
type Handle struct {
	p    *Pipeline
	run  *storm.Run
	once sync.Once
	res  *Result
}

// Start launches the pipeline on the concurrent executor without blocking
// and returns a handle. Like Run it must be called at most once per
// pipeline, and not combined with it.
func (p *Pipeline) Start() *Handle {
	return &Handle{p: p, run: p.topo.StartConcurrent()}
}

// Done returns a channel closed when the run has fully drained.
func (h *Handle) Done() <-chan struct{} { return h.run.Done() }

// Running reports whether the dataflow is still in flight.
func (h *Handle) Running() bool { return h.run.Running() }

// Snapshot takes a live snapshot of the running (or finished) pipeline.
func (h *Handle) Snapshot(k int) *Snapshot { return h.p.Snapshot(k) }

// Checkpoint writes a recovery point for the running pipeline (see
// Pipeline.Checkpoint); it errors unless Config.ArchiveDir is set.
func (h *Handle) Checkpoint() error { return h.p.Checkpoint() }

// Wait blocks until the stream drains and returns the final Result. It is
// safe to call from several goroutines; all receive the same Result.
func (h *Handle) Wait() *Result {
	st := h.run.Wait()
	h.once.Do(func() { h.res = h.p.collect(st) })
	return h.res
}
