package main

// metricDef mirrors one entry of BENCHMARK.json. The table below is the
// program's copy of that file's metric lists (the parity test holds the two
// equal): -compare needs the bounds, and a run checks that it filled every
// name before it prints.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base median it may worsen by
}

// endToEnd are the gated metrics. Every workload reports all of them from
// the untraced run. They are the ones the reference host repeats, once the
// times among them are taken at reference speed (kit.HostClock): rates and
// CPU cost of a fixed piece of work, counts and sizes. The bounds are two
// to three times the spread (quartile distance over median) that ten runs
// of the same code showed there; see README.md. The service-level latencies
// (alert lag, query latency, snapshot age, restore time) spread by 10 to
// 40 % on that host whatever the statistic, so they are reported with the
// per-layer metrics under the names the issue gave them and are not gated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_docs_per_s", "docs/s", "higher", 0.15},
	{"cpu_us_per_doc", "us", "lower", 0.15},
	{"alloc_bytes_per_op", "bytes", "lower", 0.10},
	{"rss_peak_mb", "MB", "lower", 0.20},
	{"read_qps", "req/s", "higher", 0.15},
}

// perLayer are the single-layer metrics of the traced run: counts read from
// the run's own Snapshot, /metrics scrape and runtime.MemStats, and probe
// timings from the layer replay. They have no bound.
var perLayer = []metricDef{
	// the service as its users see it, from the traced run: not steady
	// enough on a shared 2-core host to carry a bound. A workload without an
	// archive or a history issuer reports restore_s and query_hist_* as not
	// exercised (0 over no samples).
	{Name: "alert_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "alert_lag_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "query_live_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query_live_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "query_hist_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query_hist_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot_age_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "restore_s", Unit: "s", Better: "lower"},
	// storm
	{Name: "storm.roundtrip_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "storm.roundtrip_allocs_per_tuple", Unit: "allocs", Better: "lower"},
	{Name: "storm.tuples_per_doc", Unit: "tuples", Better: "lower"},
	{Name: "storm.mailbox_high_water_tuples", Unit: "tuples", Better: "lower"},
	{Name: "storm.spout_parks", Unit: "count", Better: "lower"},
	// tagset
	{Name: "tagset.key_ns", Unit: "ns", Better: "lower"},
	{Name: "tagset.key_allocs", Unit: "allocs", Better: "lower"},
	{Name: "tagset.subsets_ns_per_doc", Unit: "ns", Better: "lower"},
	// jaccard
	{Name: "jaccard.observe_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "jaccard.observe_allocs_per_doc", Unit: "allocs", Better: "lower"},
	{Name: "jaccard.coefficients_ns_per_coeff", Unit: "ns", Better: "lower"},
	{Name: "jaccard.coefficients_allocs_per_coeff", Unit: "allocs", Better: "lower"},
	{Name: "jaccard.counters_per_period", Unit: "count", Better: "lower"},
	// partition (+graph)
	{Name: "partition.components_ms_per_window", Unit: "ms", Better: "lower"},
	{Name: "partition.build_ms_per_window", Unit: "ms", Better: "lower"},
	{Name: "partition.install_ms", Unit: "ms", Better: "lower"},
	// operators: disseminator
	{Name: "dissem.notifications_per_doc", Unit: "count", Better: "lower"},
	{Name: "dissem.uncovered_frac", Unit: "frac", Better: "lower"},
	{Name: "dissem.repartitions", Unit: "count", Better: "lower"},
	{Name: "dissem.single_additions", Unit: "count", Better: "lower"},
	{Name: "dissem.load_gini", Unit: "frac", Better: "lower"},
	// operators: tracker
	{Name: "tracker.report_ns_per_coeff", Unit: "ns", Better: "lower"},
	{Name: "tracker.report_allocs_per_coeff", Unit: "allocs", Better: "lower"},
	{Name: "tracker.topk_us", Unit: "us", Better: "lower"},
	{Name: "tracker.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "tracker.view_ms", Unit: "ms", Better: "lower"},
	{Name: "tracker.duplicate_frac", Unit: "frac", Better: "lower"},
	{Name: "tracker.heap_rebuilds", Unit: "count", Better: "lower"},
	// trend
	{Name: "trend.observe_ns_per_coeff", Unit: "ns", Better: "lower"},
	{Name: "trend.published_frac", Unit: "frac", Better: "lower"},
	{Name: "trend.subscriber_drops", Unit: "count", Better: "lower"},
	// archive
	{Name: "archive.append_ns_per_coeff", Unit: "ns", Better: "lower"},
	{Name: "archive.bytes_per_coeff", Unit: "bytes", Better: "lower"},
	{Name: "archive.segment_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "archive.segment_decode_allocs", Unit: "allocs", Better: "lower"},
	{Name: "archive.checkpoint_write_ms", Unit: "ms", Better: "lower"},
	{Name: "archive.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "archive.checkpoint_load_ms", Unit: "ms", Better: "lower"},
	{Name: "archive.compact_ms_per_pass", Unit: "ms", Better: "lower"},
	{Name: "archive.checkpoint_build_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "archive.checkpoint_fsync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "archive.checkpoints", Unit: "count", Better: "higher"},
	// core
	{Name: "core.snapshot_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "core.restore_load_ms", Unit: "ms", Better: "lower"},
	{Name: "core.restore_adopt_ms", Unit: "ms", Better: "lower"},
	// server
	{Name: "server.topk20_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.topk100_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.topk100_bytes", Unit: "bytes", Better: "lower"},
	{Name: "server.trends_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.pairs_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.trendlookup_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.stats_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.partition_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.partition_bytes", Unit: "bytes", Better: "lower"},
	{Name: "server.hist_topk_sealed_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.hist_topk_live_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.hist_pairs_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.metrics_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.topk_allocs_per_req", Unit: "allocs", Better: "lower"},
	// telemetry / flight
	{Name: "telemetry.hist_record_ns", Unit: "ns", Better: "lower"},
	{Name: "flight.begin_span_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "flight.overhead_frac", Unit: "frac", Better: "lower"},
	// Go runtime
	{Name: "runtime.alloc_bytes_per_doc", Unit: "bytes", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower"},
	// the harness itself: how late the open-loop generators ran, the drain
	// tail after the last document, what the spans cost, how much of the
	// window the closed loop held the spout back, and how fast the host was
	{Name: "harness.feed_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.query_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.finish_s", Unit: "s", Better: "lower"},
	{Name: "harness.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "harness.credit_wait_frac", Unit: "frac", Better: "lower"},
	{Name: "harness.host_speed", Unit: "frac", Better: "higher"},
}

func defByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
