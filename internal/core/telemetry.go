package core

import (
	"repro/internal/flight"
	"repro/internal/telemetry"
)

// stormComponents lists the topology's component names for the per-bolt
// dataflow metrics ("trend" is appended when the detector runs).
var stormComponents = []string{
	"source", "partitioner", "merger", "disseminator", "calculator", "tracker",
}

// RegisterMetrics wires the pipeline into a telemetry registry under the
// tagcorr_<subsystem>_<name>_<unit> naming convention. Call once between
// NewPipeline and the run. Every scrape starts with one liveStats gather
// (Registry.BeforeScrape), and each scalar family is a field read of that
// Stats — the same value /stats, Snapshot and Result report; histograms, the
// mailbox high-water marks and the flight counters are read from their
// owners directly. Either way the reads go through the operators' own
// locks, so scrapes are safe at any moment of a concurrent run. Archive
// families are registered even with archiving off (they just stay zero),
// keeping the scrape surface identical across configurations.
func (p *Pipeline) RegisterMetrics(reg *telemetry.Registry) {
	st := new(Stats)
	reg.BeforeScrape(func() { *st = p.liveStats() })
	p.registerStormMetrics(reg, st)
	p.registerDissemMetrics(reg, st)
	p.registerTrackerMetrics(reg, st)
	p.registerStageMetrics(reg)
	p.registerArchiveMetrics(reg, st)
	p.registerFlightMetrics(reg)
	if p.trends != nil {
		p.registerTrendMetrics(reg, st)
	}
}

func (p *Pipeline) registerStormMetrics(reg *telemetry.Registry, s *Stats) {
	comps := stormComponents
	if p.trends != nil {
		comps = append(append([]string(nil), comps...), "trend")
	}
	st := p.topo.Stats()
	for _, c := range comps {
		c := c
		reg.CounterFunc("tagcorr_storm_tuples_emitted_total",
			"Tuples emitted by each topology component.",
			telemetry.Labels{"component": c}, func() int64 { return s.EmittedByComponent[c] })
		reg.CounterFunc("tagcorr_storm_tuples_received_total",
			"Tuples received by each topology component.",
			telemetry.Labels{"component": c}, func() int64 { return s.ReceivedByComponent[c] })
		reg.GaugeFunc("tagcorr_storm_mailbox_high_water_tuples",
			"Deepest mailbox backlog observed by any task of the component, in tuples (0 under the sequential executor).",
			telemetry.Labels{"component": c}, func() float64 {
				var max int64
				for _, d := range st.MailboxHighWater(p.topo, c) {
					if d > max {
						max = d
					}
				}
				return float64(max)
			})
	}
	reg.CounterFunc("tagcorr_storm_mailbox_compactions_total",
		"Steady-backlog mailbox compactions across all tasks.",
		nil, st.MailboxCompactions)
}

func (p *Pipeline) registerDissemMetrics(reg *telemetry.Registry, s *Stats) {
	reg.CounterFunc("tagcorr_dissem_docs_total",
		"Parsed documents seen by the Disseminator.",
		nil, func() int64 { return s.DocsProcessed })
	reg.CounterFunc("tagcorr_dissem_notifications_total",
		"Calculator notifications sent.",
		nil, func() int64 { return s.Notifications })
	reg.CounterFunc("tagcorr_dissem_notified_docs_total",
		"Documents that produced at least one notification.",
		nil, func() int64 { return s.NotifiedDocs })
	reg.CounterFunc("tagcorr_dissem_uncovered_docs_total",
		"Documents whose tagset no single Calculator fully held.",
		nil, func() int64 { return s.UncoveredDocs })
	reg.CounterFunc("tagcorr_dissem_single_additions_total",
		"Single-Addition placements requested from the Merger.",
		nil, func() int64 { return int64(s.SingleAdditions) })
	for cause, n := range map[string]*int{
		"comm": &s.RepartitionsComm, "load": &s.RepartitionsLoad, "both": &s.RepartitionsBoth,
	} {
		reg.CounterFunc("tagcorr_dissem_repartitions_total",
			"Post-bootstrap repartition requests by trigger cause.",
			telemetry.Labels{"cause": cause}, func() int64 { return int64(*n) })
	}
	reg.GaugeFunc("tagcorr_dissem_communication",
		"Run-average notifications per notified document (paper Section 8.2.1).",
		nil, func() float64 { return s.Communication })
	reg.GaugeFunc("tagcorr_dissem_load_gini",
		"Gini coefficient of cumulative per-Calculator notifications (paper Section 8.2.2).",
		nil, func() float64 { return s.LoadGini })
}

func (p *Pipeline) registerTrackerMetrics(reg *telemetry.Registry, s *Stats) {
	reg.CounterFunc("tagcorr_tracker_coefficients_received_total",
		"Coefficient reports the Tracker received, duplicates included.",
		nil, func() int64 { return s.CoefficientsReceived })
	reg.CounterFunc("tagcorr_tracker_coefficients_duplicate_total",
		"Coefficient reports dropped by CN-max dedup.",
		nil, func() int64 { return s.CoefficientsDuplicate })
	reg.GaugeFunc("tagcorr_tracker_retained_coefficients",
		"Coefficients currently retained across all shards.",
		nil, func() float64 { return float64(s.Tracker.Retained) })
	reg.GaugeFunc("tagcorr_tracker_heap_entries",
		"Entries currently held in the per-period top-k heaps of the retained periods.",
		nil, func() float64 { return float64(s.Tracker.HeapEntries) })
	reg.CounterFunc("tagcorr_tracker_heap_rebuilds_total",
		"Per-period heap rebuilds (demotions, bound raises; prunes never rebuild).",
		nil, func() int64 { return s.Tracker.Rebuilds })
	reg.GaugeFunc("tagcorr_tracker_retained_periods",
		"Reporting periods currently retained.",
		nil, func() float64 { return float64(s.Tracker.RetainedPeriods) })
	reg.CounterFunc("tagcorr_tracker_pruned_periods_total",
		"Reporting periods evicted by retention.",
		nil, func() int64 { return s.Tracker.PrunedPeriods })
	reg.GaugeFunc("tagcorr_tracker_evicted_lru_entries",
		"Pairs currently held in the evicted-coefficient LRU.",
		nil, func() float64 { return float64(s.Tracker.EvictedLen) })
	reg.CounterFunc("tagcorr_tracker_evicted_lru_hits_total",
		"Pair lookups answered from the evicted-coefficient LRU.",
		nil, func() int64 { return s.Tracker.EvictedHits })
	reg.CounterFunc("tagcorr_tracker_evicted_lru_misses_total",
		"Evicted-LRU lookups that found nothing.",
		nil, func() int64 { return s.Tracker.EvictedMisses })
}

func (p *Pipeline) registerStageMetrics(reg *telemetry.Registry) {
	reg.Observe("tagcorr_stage_doc_partition_seconds",
		"Latency from a document's ingest stamp to its arrival in a Partitioner window.",
		telemetry.Labels{"stage": "doc_partition"}, p.stages.DocPartition)
	reg.Observe("tagcorr_stage_doc_coefficient_seconds",
		"Latency from a document's ingest stamp to the coefficient flush it triggered leaving a Calculator.",
		telemetry.Labels{"stage": "doc_coefficient"}, p.stages.DocCoefficient)
	reg.Observe("tagcorr_stage_doc_tracker_accept_seconds",
		"Latency from a document's ingest stamp to the Tracker accepting its triggered flush.",
		telemetry.Labels{"stage": "doc_tracker_accept"}, p.stages.DocTrackerAccept)
}

func (p *Pipeline) registerArchiveMetrics(reg *telemetry.Registry, s *Stats) {
	reg.CounterFunc("tagcorr_archive_checkpoints_total",
		"Completed checkpoint writes.",
		nil, func() int64 { return s.Checkpoints })
	reg.Observe("tagcorr_archive_checkpoint_build_seconds",
		"Checkpoint state-export latency (deep copy under the operator locks).",
		nil, p.ckptBuildHist)
	reg.Observe("tagcorr_archive_checkpoint_write_seconds",
		"Checkpoint encode + write + fsync + rename latency on the writer goroutine.",
		nil, p.ckptWriteHist)
	reg.Observe("tagcorr_archive_checkpoint_fsync_seconds",
		"fsync portion of each checkpoint write.",
		nil, p.ckptFsyncHist)
	reg.Observe("tagcorr_archive_compaction_seconds",
		"Duration of each background compactor pass.",
		nil, p.compactHist)
	reg.CounterFunc("tagcorr_archive_compactions_total",
		"Compacted archive files written.",
		nil, func() int64 { return s.ArchiveCompactions })
	reg.CounterFunc("tagcorr_archive_compacted_periods_total",
		"Raw period segments folded into compacted files.",
		nil, func() int64 { return s.ArchiveCompactedPeriods })
	reg.CounterFunc("tagcorr_archive_aged_out_periods_total",
		"Periods deleted from the compacted tier under the disk budget.",
		nil, func() int64 { return s.ArchiveAgedOutPeriods })
	reg.CounterFunc("tagcorr_archive_aged_out_bytes_total",
		"Bytes freed by deleting aged-out compacted periods.",
		nil, func() int64 { return s.ArchiveAgedOutBytes })
	reg.GaugeFunc("tagcorr_archive_dir_bytes",
		"Archive directory size after the compactor's last pass.",
		nil, func() float64 { return float64(s.ArchiveBytes) })
}

// registerFlightMetrics exports the flight recorder's counters. Like the
// archive families, they are registered even when no recorder is
// configured (every accessor is nil-safe and reads zero), so the scrape
// surface stays identical across configurations.
func (p *Pipeline) registerFlightMetrics(reg *telemetry.Registry) {
	rec := p.cfg.Flight
	for _, kind := range flight.EventKinds {
		kind := kind
		reg.CounterFunc("tagcorr_flight_events_total",
			"Operational events recorded into the flight ring, by kind.",
			telemetry.Labels{"kind": kind}, func() int64 { return rec.EventCount(kind) })
	}
	reg.CounterFunc("tagcorr_flight_traces_started_total",
		"Documents granted a provisional span trace at the spout.",
		nil, func() int64 { return rec.Snapshot().TracesStarted })
	for _, reason := range []string{"sample", "slow"} {
		reason := reason
		reg.CounterFunc("tagcorr_flight_traces_retained_total",
			"Finalized traces retained, by reason (deterministic head sample vs tail-based slowest-K).",
			telemetry.Labels{"reason": reason}, func() int64 {
				s := rec.Snapshot()
				if reason == "sample" {
					return s.KeptSample
				}
				return s.KeptSlow
			})
	}
	reg.CounterFunc("tagcorr_flight_traces_discarded_total",
		"Finalized traces discarded (neither head-sampled nor among the window's slowest).",
		nil, func() int64 { return rec.Snapshot().Discarded })
	reg.GaugeFunc("tagcorr_flight_active_traces",
		"Provisional traces currently awaiting finalization.",
		nil, func() float64 { return float64(rec.Snapshot().Active) })
	reg.GaugeFunc("tagcorr_flight_retained_traces",
		"Finalized traces currently held for /debug/traces.",
		nil, func() float64 { return float64(rec.Snapshot().Retained) })
}

// registerTrendMetrics runs only with the detector on, so every gathered
// Stats it reads has a non-nil TrendStats.
func (p *Pipeline) registerTrendMetrics(reg *telemetry.Registry, s *Stats) {
	reg.CounterFunc("tagcorr_trend_deviations_scored_total",
		"Deviation events scored by the streaming trend detector.",
		nil, func() int64 { return s.TrendStats.Scored })
	reg.CounterFunc("tagcorr_trend_filtered_total",
		"Trend observations below the minimum-support floor.",
		nil, func() int64 { return s.TrendStats.Filtered })
	reg.CounterFunc("tagcorr_trend_published_total",
		"Trend events delivered to at least one subscriber.",
		nil, func() int64 { return s.TrendStats.Published })
	reg.CounterFunc("tagcorr_trend_subscriber_drops_total",
		"Per-subscriber trend deliveries lost to full buffers.",
		nil, func() int64 { return s.TrendStats.Dropped })
	reg.GaugeFunc("tagcorr_trend_subscribers",
		"Live trend event subscribers.",
		nil, func() float64 { return float64(s.TrendStats.Subscribers) })
	reg.GaugeFunc("tagcorr_trend_tracked_predictors",
		"Live EWMA predictors across all trend shards.",
		nil, func() float64 { return float64(s.TrendStats.Tracked) })
}
