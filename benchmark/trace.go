package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/benchmark/kit"
)

// layersBinary is the layer replay's executable, built by run.sh next to
// this program's. It is a program of its own because it calls into the
// layers' wider API (storm tuples, operator bolts, the archive writer):
// when a layer's API changes, the replay may stop building, and the
// end-to-end harness must not stop with it.
const layersBinary = "tagcorr-layers"

// layersOutput is what the layer replay prints.
type layersOutput struct {
	Metrics map[string]kit.Value `json:"metrics"`
	Spans   []kit.Span           `json:"spans"`
}

func runLayers(w workload, o options) (*layersOutput, error) {
	bin := o.layers
	if bin == "" {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		bin = filepath.Join(filepath.Dir(self), layersBinary)
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("the layer replay is not built (%v); benchmark/run.sh builds it, or: go build -o %s ./layers", err, bin)
	}
	cmd := exec.Command(bin, "-shape", string(w.Shape), "-seed", fmt.Sprint(o.seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	var lo layersOutput
	if err := json.Unmarshal(out, &lo); err != nil {
		return nil, fmt.Errorf("layer replay output: %w", err)
	}
	return &lo, nil
}

// runTraced is -trace 1: the workload at a third of the window with the
// harness spans and the snapshot poll on, and the layer replay over the
// workload's stream. End-to-end numbers never come from here.
func runTraced(w workload, o options) (*report, error) {
	third := o.seconds / 3
	spans := kit.NewSpans()
	clock := kit.StartHostClock()
	m, err := measure(runSpec{w: w, seed: o.seed, seconds: third, setups: 1, restores: 1, spans: spans, clock: clock})
	clock.Stop()
	if err != nil {
		return nil, err
	}
	lo, err := runLayers(w, o)
	if err != nil {
		return nil, err
	}
	spans.Append(lo.Spans)

	rep := newReport(w, o, m, echoConfig(w, m.cfg, third, m.stormClients))
	rep.Metrics = m.perLayerValues(spans)
	for name, v := range lo.Metrics {
		rep.Metrics[name] = v
	}
	// What the flight recorder costs a document (the replay's probe: Begin
	// at the spout and a span per stage) as a share of what a document
	// costs this workload. Accounted, like the tracing overhead: the
	// difference between a run with the recorder and one without is a few
	// percent of noise around a fraction of a percent.
	rep.Metrics["flight.overhead_frac"] = kit.Value{
		Value: lo.Metrics["flight.begin_span_ns_per_doc"].Value / 1e3 / (m.cpuS * 1e6 / float64(m.feedDocs)),
		N:     1,
	}
	rep.Metrics = withUnits(rep.Metrics, perLayer)
	rep.OpsAttempted, rep.OpsFailed, rep.Problems = m.attempted, m.failed, m.problems
	m.diagnostics(rep.Diagnostics)
	all := spans.List()
	rep.SelfTimes = kit.SelfTimes(all)
	if o.out != "" {
		path := filepath.Join(o.out, "trace-"+w.Name+".json")
		if err := kit.WriteTrace(path, w.Name, o.seed, all); err != nil {
			return nil, err
		}
	}
	rep.finish(perLayer)
	return rep, nil
}

// traceCost is the CPU time in seconds that tracing cost the traced run:
// its spans at the measured price of recording one, plus the time the
// snapshot poll spent in Pipeline.Snapshot. It is accounted, not taken as
// the difference to an untraced run: two runs of this service differ by
// several percent for no reason at all, many times what the spans cost.
func traceCost(spans *kit.Spans, pollMS []float64) float64 {
	const probe = 100_000
	scratch := kit.NewSpans()
	now := time.Now()
	start := time.Now()
	for i := 0; i < probe; i++ {
		scratch.Add("probe", 0, 0, now, now)
	}
	perSpan := time.Since(start).Seconds() / probe
	cost := perSpan * float64(len(spans.List()))
	for _, ms := range pollMS {
		cost += ms / 1e3
	}
	return cost
}

// perLayerValues folds the traced run into the count metrics: what the
// run's own Snapshot, /metrics scrape and runtime.MemStats say about each
// layer, the service-level latencies, and what the tracing cost.
func (m *measurement) perLayerValues(spans *kit.Spans) map[string]kit.Value {
	one := func(x float64) kit.Value { return kit.Value{Value: x, N: 1} }
	ratio := func(a, b float64) kit.Value {
		if b == 0 {
			return kit.Value{N: 1}
		}
		return one(a / b)
	}
	s, sc := m.final, m.metrics
	docs := float64(s.DocsProcessed)
	var emitted float64
	for _, n := range s.EmittedByComponent {
		emitted += float64(n)
	}
	ms := func(seconds float64) float64 { return seconds * 1e3 }
	mallocBytes := float64(m.memAfter.TotalAlloc - m.memBefore.TotalAlloc)
	v := map[string]kit.Value{
		"storm.tuples_per_doc":            ratio(emitted, docs),
		"storm.mailbox_high_water_tuples": one(sc.max("tagcorr_storm_mailbox_high_water_tuples")),
		// The flight recorder logs a parked spout at most once a second, so
		// this counts the seconds in which the spout throttle engaged.
		"storm.spout_parks": one(sc.sum("tagcorr_flight_events_total", `kind="throttle_saturated"`)),

		"partition.install_ms": one(m.installMS),

		"dissem.notifications_per_doc": one(s.Communication),
		"dissem.uncovered_frac":        ratio(float64(s.UncoveredDocs), docs),
		"dissem.repartitions":          one(float64(s.Repartitions)),
		"dissem.single_additions":      one(float64(s.SingleAdditions)),
		"dissem.load_gini":             one(s.LoadGini),

		"tracker.duplicate_frac": ratio(float64(s.CoefficientsDuplicate), float64(s.CoefficientsReceived)),
		"tracker.heap_rebuilds":  one(sc.sum("tagcorr_tracker_heap_rebuilds_total", "")),

		"trend.published_frac": ratio(sc.sum("tagcorr_trend_published_total", ""),
			sc.sum("tagcorr_trend_deviations_scored_total", "")),
		"trend.subscriber_drops": one(sc.sum("tagcorr_trend_subscriber_drops_total", "")),

		"archive.checkpoint_build_ms_p50": one(ms(sc.histQuantile("tagcorr_archive_checkpoint_build_seconds", 0.5))),
		"archive.checkpoint_fsync_ms_p50": one(ms(sc.histQuantile("tagcorr_archive_checkpoint_fsync_seconds", 0.5))),
		"archive.checkpoints":             one(sc.sum("tagcorr_archive_checkpoints_total", "")),

		"core.snapshot_ms_p50":  {Value: kit.Quantile(m.snapshotMS, 0.50), N: len(m.snapshotMS)},
		"core.snapshot_ms_p99":  {Value: kit.Quantile(m.snapshotMS, 0.99), N: len(m.snapshotMS)},
		"core.restore_load_ms":  {Value: kit.Median(m.restoreLoadMS), N: len(m.restoreLoadMS)},
		"core.restore_adopt_ms": {Value: kit.Median(m.restoreAdopt), N: len(m.restoreAdopt)},

		"runtime.alloc_bytes_per_doc": ratio(mallocBytes, float64(m.feedDocs)),
		"runtime.gc_cpu_frac":         ratio(m.gcCPUS, m.cpuS),
		"runtime.gc_pause_total_ms":   one(float64(m.memAfter.PauseTotalNs-m.memBefore.PauseTotalNs) / 1e6),
		"runtime.goroutines_peak":     one(float64(m.goroutinesPeak)),

		"harness.feed_late_p99_ms":    {Value: kit.Quantile(m.feedLateMS, 0.99), N: len(m.feedLateMS)},
		"harness.query_late_p99_ms":   {Value: kit.Quantile(m.queryLateMS, 0.99), N: len(m.queryLateMS)},
		"harness.finish_s":            one(m.finishS),
		"harness.trace_overhead_frac": ratio(traceCost(spans, m.snapshotMS), m.cpuS),
		"harness.credit_wait_frac":    ratio(m.creditS, m.window.seconds()),
		"harness.host_speed":          one(m.speed(m.window)),
	}
	for name, val := range m.serviceValues() {
		v[name] = val
	}
	return withUnits(v, perLayer)
}
