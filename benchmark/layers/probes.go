package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/benchmark/kit"
	"repro/internal/archive"
	"repro/internal/flight"
	"repro/internal/graph"
	"repro/internal/jaccard"
	"repro/internal/operators"
	"repro/internal/partition"
	"repro/internal/storm"
	"repro/internal/tagset"
	"repro/internal/telemetry"
	"repro/internal/trend"
)

// partitionLayer: the co-occurrence components of the window and the DS
// partitioning built from them, as the Partitioners and the Merger compute
// them at every (re)partition.
func (r *replay) partitionLayer(parent int64) error {
	sets := weightedSets(r.window)
	ns, _ := r.repeated("graph.Components", parent, func() { graph.Components(sets) })
	r.set("partition.components_ms_per_window", ns/1e6, reps)
	var err error
	ns, _ = r.repeated("partition.Build", parent, func() {
		_, err = partition.Build(sets, partition.Options{Algorithm: r.cfg.Algorithm, K: r.cfg.K, Seed: r.cfg.Seed})
	})
	r.set("partition.build_ms_per_window", ns/1e6, reps)
	return err
}

// tagsetLayer: the map key of a document's tagset and the enumeration of
// its subsets, the two operations every counted document pays.
func (r *replay) tagsetLayer(parent int64) error {
	docs := r.period
	var sink int
	ns, allocs := r.repeated("tagset.Set.Key", parent, func() {
		for _, d := range docs {
			sink += len(d.Tags.Key())
		}
	})
	r.set("tagset.key_ns", per(ns, len(docs)), len(docs))
	r.set("tagset.key_allocs", per(allocs, len(docs)), len(docs))
	ns, _ = r.repeated("tagset.Set.Subsets", parent, func() {
		for _, d := range docs {
			d.Tags.Subsets(1, func(s tagset.Set) { sink += len(s) })
		}
	})
	r.set("tagset.subsets_ns_per_doc", per(ns, len(docs)), len(docs))
	if sink < 0 {
		return fmt.Errorf("impossible")
	}
	return nil
}

// jaccardLayer: a Calculator's counter table over the period's documents,
// then the period report. The exact report of the window's first documents
// is computed too (untimed): it primes the Tracker and the trend predictors
// below with a previous period.
func (r *replay) jaccardLayer(parent int64) error {
	prime := jaccard.NewCounterTable()
	for _, d := range r.window[:min(primerDocs, len(r.window))] {
		prime.Observe(d.Tags)
	}
	r.primer = prime.Coefficients(1)

	ct := jaccard.NewCounterTable()
	ns, allocs := r.timed("CounterTable.Observe", parent, func() {
		for _, d := range r.period {
			ct.Observe(d.Tags)
		}
	})
	r.set("jaccard.observe_ns_per_doc", per(ns, len(r.period)), len(r.period))
	r.set("jaccard.observe_allocs_per_doc", per(allocs, len(r.period)), len(r.period))
	r.set("jaccard.counters_per_period", float64(ct.Counters()), 1)

	ns, allocs = r.timed("CounterTable.Coefficients", parent, func() { r.coeffs = ct.Coefficients(1) })
	if len(r.coeffs) == 0 {
		return fmt.Errorf("the period produced no coefficient")
	}
	r.set("jaccard.coefficients_ns_per_coeff", per(ns, len(r.coeffs)), len(r.coeffs))
	r.set("jaccard.coefficients_allocs_per_coeff", per(allocs, len(r.coeffs)), len(r.coeffs))
	r.timed("CounterTable.Reset", parent, ct.Reset)
	return nil
}

// batches splits a report the way the Calculators ship it: one CoeffBatch
// tuple per Calculator and Tracker task.
func (r *replay) batches(period int64, coeffs []jaccard.Coefficient) []storm.Tuple {
	n := r.cfg.K * r.cfg.TrackerTasks
	size := (len(coeffs) + n - 1) / n
	var out []storm.Tuple
	for lo := 0; lo < len(coeffs); lo += size {
		hi := min(lo+size, len(coeffs))
		out = append(out, storm.Tuple{Stream: operators.StreamCoeff, Values: []interface{}{
			operators.CoeffBatch{Period: period, Coeffs: coeffs[lo:hi]},
		}})
	}
	return out
}

// trackerLayer: the report path (Execute on the period's batches) and the
// read side the serving layer uses.
func (r *replay) trackerLayer(parent int64) error {
	tr := operators.NewTrackerWith(r.cfg.TrackerShards, r.cfg.TrackerTopK, r.cfg.EvictedPairs)
	tr.SetRetention(r.cfg.KeepPeriods)
	tr.EnsureTopKBound(100)
	for _, t := range r.batches(windowPeriod, r.primer) {
		tr.Execute(t, nil)
	}
	tuples := r.batches(replayPeriod, r.coeffs)
	ns, allocs := r.timed("Tracker.Execute", parent, func() {
		for _, t := range tuples {
			tr.Execute(t, nil)
		}
	})
	r.set("tracker.report_ns_per_coeff", per(ns, len(r.coeffs)), len(r.coeffs))
	r.set("tracker.report_allocs_per_coeff", per(allocs, len(r.coeffs)), len(r.coeffs))

	ns, _ = r.repeated("Tracker.TopK", parent, func() { tr.TopK(100) })
	r.set("tracker.topk_us", ns/1e3, reps)

	keys := make([]tagset.Key, 0, 1000)
	for i := 0; i < len(r.coeffs) && len(keys) < cap(keys); i += max(len(r.coeffs)/cap(keys), 1) {
		keys = append(keys, r.coeffs[i].Tags.Key())
	}
	missed := 0
	ns, _ = r.repeated("Tracker.Lookup", parent, func() {
		for _, k := range keys {
			if _, _, ok := tr.Lookup(k); !ok {
				missed++
			}
		}
	})
	if missed > 0 {
		return fmt.Errorf("%d lookups of reported tagsets missed", missed)
	}
	r.set("tracker.lookup_ns", per(ns, len(keys)), len(keys))

	ns, _ = r.repeated("Tracker.ConsistentView", parent, func() { tr.ConsistentView(100) })
	r.set("tracker.view_ms", ns/1e6, reps)
	r.tracker = tr
	return nil
}

// trendLayer: the detector scoring the period's accepted reports against
// predictors primed by the window's.
func (r *replay) trendLayer(parent int64) error {
	det, err := trend.NewStream(r.cfg.TrendStreamConfig())
	if err != nil {
		return err
	}
	for _, c := range r.primer {
		det.Observe(windowPeriod, c)
	}
	ns, _ := r.timed("trend.Stream.Observe", parent, func() {
		for _, c := range r.coeffs {
			det.Observe(replayPeriod, c)
		}
	})
	r.set("trend.observe_ns_per_coeff", per(ns, len(r.coeffs)), len(r.coeffs))
	r.trends = det
	return nil
}

// archiveLayer: the segment write and decode paths, a checkpoint of the
// state the layers above built, its load, and a compaction pass.
func (r *replay) archiveLayer(parent int64) error {
	dir, err := tempDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := archive.OpenWriter(dir)
	if err != nil {
		return err
	}
	defer w.Close()
	for _, c := range r.primer {
		w.AppendCoefficient(windowPeriod, c)
	}
	w.SealPeriod(windowPeriod)

	ns, _ := r.timed("archive.Writer.AppendCoefficient", parent, func() {
		for _, c := range r.coeffs {
			w.AppendCoefficient(replayPeriod, c)
		}
	})
	r.set("archive.append_ns_per_coeff", per(ns, len(r.coeffs)), len(r.coeffs))
	r.timed("archive.Writer.SealPeriod", parent, func() { w.SealPeriod(replayPeriod) })
	seg, err := os.Stat(filepath.Join(dir, fmt.Sprintf("period-%d.seg", replayPeriod)))
	if err != nil {
		return err
	}
	r.set("archive.bytes_per_coeff", per(float64(seg.Size()), len(r.coeffs)), len(r.coeffs))

	// A fresh Reader per repetition: a cached segment is not decoded.
	var decoded *archive.Segment
	ns, allocs := r.repeated("archive.Reader.Segment", parent, func() {
		decoded, err = archive.OpenReader(dir).Segment(replayPeriod)
	})
	if err != nil {
		return err
	}
	if decoded == nil || len(decoded.Coeffs) != len(r.coeffs) {
		return fmt.Errorf("decoded segment does not hold the %d appended coefficients", len(r.coeffs))
	}
	r.set("archive.segment_decode_ms", ns/1e6, reps)
	r.set("archive.segment_decode_allocs", allocs, reps)

	cut := int64(math.MaxInt64)
	trendState := r.trends.ExportState(cut)
	cp := &archive.Checkpoint{
		ReplayPeriod: replayPeriod + 1,
		DocsFed:      int64(len(r.window) + len(r.period)),
		ReplayFrom:   int64(len(r.window) + len(r.period)),
		Dict:         r.st.Dict.Snapshot(),
		Tracker:      r.tracker.ExportState(cut),
		Trend:        &trendState,
	}
	ns, _ = r.timed("archive.Writer.WriteCheckpoint", parent, func() { err = w.WriteCheckpoint(cp) })
	if err != nil {
		return err
	}
	r.set("archive.checkpoint_write_ms", ns/1e6, 1)
	files, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no checkpoint file written: %v", err)
	}
	ck, err := os.Stat(files[len(files)-1])
	if err != nil {
		return err
	}
	r.set("archive.checkpoint_bytes", float64(ck.Size()), 1)

	var loaded *archive.Checkpoint
	ns, _ = r.repeated("archive.LoadCheckpoint", parent, func() { loaded, err = archive.LoadCheckpoint(dir) })
	if err != nil {
		return err
	}
	if loaded == nil || len(loaded.Tracker.Periods) != len(cp.Tracker.Periods) {
		return fmt.Errorf("loaded checkpoint does not hold the written periods")
	}
	r.set("archive.checkpoint_load_ms", ns/1e6, reps)

	// No SafeBelow: every raw period counts as sealed, which is true of this
	// directory. One pass folds the two period segments into one file.
	comp := archive.NewCompactor(dir, archive.CompactorConfig{FanIn: 2})
	ns, _ = r.timed("archive.Compactor.RunOnce", parent, func() { err = comp.RunOnce() })
	if err != nil {
		return err
	}
	if comp.Stats().CompactedPeriods != 2 {
		return fmt.Errorf("compaction pass folded %d periods, want 2", comp.Stats().CompactedPeriods)
	}
	r.set("archive.compact_ms_per_pass", ns/1e6, 1)
	return nil
}

// noop is the storm probe's bolt: it forwards what it gets, or just counts.
type noop struct {
	forward bool
	seen    int
}

func (b *noop) Prepare(*storm.TaskContext) {}
func (b *noop) Execute(t storm.Tuple, out storm.Collector) {
	b.seen++
	if b.forward {
		out.Emit(t)
	}
}

// counter is the storm probe's spout: n tuples carrying their index.
type counter struct{ i, n int }

func (s *counter) Open(*storm.TaskContext) {}
func (s *counter) NextTuple(out storm.Collector) bool {
	if s.i >= s.n {
		return false
	}
	i := s.i
	s.i++
	out.Emit(storm.Tuple{Stream: "n", Values: []interface{}{i}})
	return true
}

// stormTuples is the storm probe's stream length.
const stormTuples = 1_000_000

// stormLayer: a spout and two no-op bolts on the concurrent executor, so
// the number is what a tuple pays for emit, routing, mailbox and dispatch,
// twice.
func (r *replay) stormLayer(parent int64) error {
	last := &noop{}
	b := storm.NewBuilder()
	b.Spout("spout", func() storm.Spout { return &counter{n: stormTuples} }, 1)
	b.Bolt("forward", func() storm.Bolt { return &noop{forward: true} }, 1).Shuffle("spout")
	b.Bolt("sink", func() storm.Bolt { return last }, 1).Shuffle("forward")
	topo, err := b.Build()
	if err != nil {
		return err
	}
	ns, allocs := r.timed("storm.RunConcurrent", parent, func() { topo.RunConcurrent() })
	if last.seen != stormTuples {
		return fmt.Errorf("sink saw %d of %d tuples", last.seen, stormTuples)
	}
	r.set("storm.roundtrip_ns_per_tuple", per(ns, stormTuples), stormTuples)
	r.set("storm.roundtrip_allocs_per_tuple", per(allocs, stormTuples), stormTuples)
	return nil
}

// telemetryLayer: what observing costs per observation: one histogram
// record, and the flight recorder's per-document work at the harness's
// sampling rate (Begin at the spout, then one span per stage).
func (r *replay) telemetryLayer(parent int64) error {
	const records = 1_000_000
	h := telemetry.NewHistogram()
	ns, _ := r.timed("telemetry.Histogram.Record", parent, func() {
		for i := 0; i < records; i++ {
			h.Record(time.Duration(i))
		}
	})
	r.set("telemetry.hist_record_ns", per(ns, records), records)

	rec := flight.NewRecorder(flight.Config{Sample: kit.FlightSample})
	stages := []string{flight.StageCalculate, flight.StageTrack, flight.StageArchive}
	const docs = 200_000
	ns, _ = r.timed("flight.Recorder.Begin+Span", parent, func() {
		for i := 0; i < docs; i++ {
			now := telemetry.Now()
			id := rec.Begin(now)
			for _, st := range stages {
				rec.Span(id, st, now, now)
			}
		}
	})
	r.set("flight.begin_span_ns_per_doc", per(ns, docs), docs)
	return nil
}
