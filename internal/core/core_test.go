package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/jaccard"
	"repro/internal/partition"
	"repro/internal/quality"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/telemetry"
	"repro/internal/twitgen"
)

// shortStream produces n documents of a small deterministic synthetic
// stream with a fast clock so windows fill quickly.
func shortStream(t *testing.T, n int, seed int64) ([]stream.Document, *tagset.Dictionary) {
	t.Helper()
	dict := tagset.NewDictionary()
	cfg := twitgen.Default()
	cfg.Seed = seed
	cfg.TPS = 26000 // 1300 tagged docs per virtual second
	cfg.Topics = 60
	cfg.TagsPerTopic = 10
	g, err := twitgen.New(cfg, dict)
	if err != nil {
		t.Fatal(err)
	}
	return g.Generate(n), dict
}

// fastConfig shrinks windows and reporting so short tests exercise the full
// life cycle: bootstrap, installs, reports, additions, repartitions.
func fastConfig(alg partition.Algorithm) Config {
	cfg := DefaultConfig()
	cfg.Algorithm = alg
	cfg.K = 4
	cfg.P = 3
	cfg.WindowSpan = stream.Seconds(5)
	cfg.ReportEvery = stream.Seconds(5)
	cfg.StatsEvery = 500
	return cfg
}

func TestNewPipelineValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := NewPipeline(cfg, nil); err == nil {
		t.Error("nil source accepted")
	}
	cfg.K = 0
	if _, err := NewPipeline(cfg, SliceSource(nil)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	for _, alg := range []partition.Algorithm{partition.DS, partition.SCC, partition.SCL, partition.SCI} {
		t.Run(string(alg), func(t *testing.T) {
			docs, _ := shortStream(t, 40000, 3)
			pipe, err := NewPipeline(fastConfig(alg), SliceSource(docs))
			if err != nil {
				t.Fatal(err)
			}
			res := pipe.Run()

			if res.DocsProcessed != 40000 {
				t.Errorf("processed %d docs", res.DocsProcessed)
			}
			if res.Merges < 1 {
				t.Fatal("no partitions were ever merged")
			}
			if res.DocsBeforeInstall <= 0 || res.DocsBeforeInstall >= res.DocsProcessed {
				t.Errorf("bootstrap consumed %d of %d docs", res.DocsBeforeInstall, res.DocsProcessed)
			}
			if len(res.Coefficients()) == 0 {
				t.Fatal("no Jaccard coefficients reported")
			}
			for _, c := range res.Coefficients() {
				if c.J < 0 || c.J > 1 {
					t.Fatalf("coefficient out of range: %+v", c)
				}
				if c.Tags.Len() < 2 {
					t.Fatalf("coefficient for %d-tag set", c.Tags.Len())
				}
			}
			if res.Communication < 1 {
				t.Errorf("communication = %g < 1", res.Communication)
			}
			if res.LoadGini < 0 || res.LoadGini >= 1 {
				t.Errorf("load gini = %g", res.LoadGini)
			}
			if pipe.merger.PartitionsSnapshot() == nil {
				t.Error("no final partitions")
			}
		})
	}
}

// TestPipelineDeterministic runs each algorithm twice on the sequential
// executor and requires identical answers: every coefficient, the quality
// statistics, the repartitions by cause and the single additions.
func TestPipelineDeterministic(t *testing.T) {
	for _, alg := range []partition.Algorithm{partition.DS, partition.SCI, partition.SCC, partition.SCL} {
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			run := func() *Result {
				docs, _ := shortStream(t, 20000, 9)
				pipe, err := NewPipeline(fastConfig(alg), SliceSource(docs))
				if err != nil {
					t.Fatal(err)
				}
				return pipe.Run()
			}
			a, b := run(), run()
			if a.Communication != b.Communication || a.LoadGini != b.LoadGini {
				t.Errorf("metrics diverged: %g/%g vs %g/%g",
					a.Communication, a.LoadGini, b.Communication, b.LoadGini)
			}
			if !reflect.DeepEqual(a.Coefficients(), b.Coefficients()) {
				t.Errorf("coefficients diverged (%d vs %d)", len(a.Coefficients()), len(b.Coefficients()))
			}
			type dynamics struct{ repartitions, comm, load, both, additions int }
			da := dynamics{a.Repartitions, a.RepartitionsComm, a.RepartitionsLoad, a.RepartitionsBoth, a.SingleAdditions}
			db := dynamics{b.Repartitions, b.RepartitionsComm, b.RepartitionsLoad, b.RepartitionsBoth, b.SingleAdditions}
			if da != db {
				t.Errorf("dynamics diverged: %+v vs %+v", da, db)
			}
		})
	}
}

func TestPipelineConcurrentMatchesTotals(t *testing.T) {
	docs, _ := shortStream(t, 20000, 5)
	seq, err := NewPipeline(fastConfig(partition.DS), SliceSource(docs))
	if err != nil {
		t.Fatal(err)
	}
	sres := seq.Run()

	// The concurrent run holds its source, once the first document past the
	// first window (the one that makes a Disseminator ask for partitions)
	// has gone out, until the first partitions are installed. Left to the
	// scheduler, the install can land after the whole stream has passed,
	// and the run then counts next to nothing.
	cfg := fastConfig(partition.DS)
	var con *Pipeline
	next, crossed, held := SliceSource(docs), false, false
	src := func() (stream.Document, bool) {
		d, ok := next()
		if ok && d.Time >= cfg.WindowSpan {
			if crossed && !held {
				held = true
				deadline := time.Now().Add(30 * time.Second)
				for con.Snapshot(1).Stats.Epoch < 1 {
					if time.Now().After(deadline) {
						t.Error("no partitions installed 30 s after the first window")
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
			crossed = true
		}
		return d, ok
	}
	con, err = NewPipeline(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	cres := con.Start().Wait()

	if cres.DocsProcessed != sres.DocsProcessed {
		t.Errorf("docs: %d vs %d", cres.DocsProcessed, sres.DocsProcessed)
	}
	if cres.Merges < 1 || len(cres.Coefficients()) == 0 {
		t.Error("concurrent run produced no results")
	}
	if cres.Dissem.Notifications == 0 {
		t.Error("concurrent run sent no notifications")
	}
	// Scheduling still shifts how many of the documents queued at the
	// install the Disseminator routes, so coefficient counts vary run to
	// run; require the same order of magnitude only.
	nc, ns := len(cres.Coefficients()), len(sres.Coefficients())
	if ratio := float64(nc) / float64(ns); ratio < 0.1 || ratio > 10 {
		t.Errorf("coefficient counts diverged: %d vs %d", nc, ns)
	}
}

// TestPipelineAccuracy checks the headline claim of Section 8.2.3 at run
// level: the overwhelming majority of tagsets seen more than sn times in
// the (post-install) input receive a Jaccard coefficient, and per-period
// coefficients stay close to the exact centralized baseline.
func TestPipelineAccuracy(t *testing.T) {
	docs, _ := shortStream(t, 60000, 11)
	cfg := fastConfig(partition.DS)
	pipe, err := NewPipeline(cfg, SliceSource(docs))
	if err != nil {
		t.Fatal(err)
	}
	res := pipe.Run()
	post := docs[res.DocsBeforeInstall:]

	// Run-level coverage.
	inputCounts := make(map[tagset.Key]int64)
	for _, d := range post {
		if d.Tags.Len() >= 2 {
			inputCounts[d.Tags.Key()]++
		}
	}
	reported := make(map[tagset.Key]struct{})
	for _, c := range res.Coefficients() {
		reported[c.Tags.Key()] = struct{}{}
	}
	var frequent, hit int
	for k, n := range inputCounts {
		if n > int64(cfg.SN) {
			frequent++
			if _, ok := reported[k]; ok {
				hit++
			}
		}
	}
	if frequent == 0 {
		t.Fatal("no frequent tagsets in input")
	}
	coverage := float64(hit) / float64(frequent)
	if coverage < 0.9 {
		t.Errorf("run-level coverage = %.3f (%d/%d), want >= 0.9", coverage, hit, frequent)
	}

	// Per-period error against the exact centralized baseline.
	central := jaccard.NewCentralized()
	var boundary stream.Millis
	started := false
	var errSum, weight float64
	flush := func(period int64) {
		base := central.Report(int64(cfg.SN) + 1)
		if len(base) == 0 {
			return
		}
		e, cov := jaccard.CompareReports(base, res.Tracker.Report(period))
		w := cov * float64(len(base))
		errSum += e * w
		weight += w
	}
	for _, d := range post {
		if !started {
			boundary = (d.Time/cfg.ReportEvery + 1) * cfg.ReportEvery
			started = true
		}
		for d.Time >= boundary {
			flush(int64(boundary / cfg.ReportEvery))
			boundary += cfg.ReportEvery
		}
		central.Observe(d.Tags)
	}
	flush(int64(boundary / cfg.ReportEvery))
	if weight == 0 {
		t.Fatal("no matched tagsets for error computation")
	}
	meanErr := errSum / weight
	if meanErr > 0.2 {
		t.Errorf("mean Jaccard error = %.4f, want small", meanErr)
	}
}

func TestGeneratorSourceCap(t *testing.T) {
	n := 0
	src := GeneratorSource(func() stream.Document {
		n++
		return stream.Document{ID: uint64(n)}
	}, 3)
	got := 0
	for {
		_, ok := src()
		if !ok {
			break
		}
		got++
	}
	if got != 3 || n != 3 {
		t.Errorf("yielded %d docs, generator called %d times", got, n)
	}
}

func TestSliceSourceExhausts(t *testing.T) {
	src := SliceSource([]stream.Document{{ID: 1}, {ID: 2}})
	d1, ok1 := src()
	d2, ok2 := src()
	_, ok3 := src()
	if !ok1 || !ok2 || ok3 || d1.ID != 1 || d2.ID != 2 {
		t.Error("SliceSource misbehaved")
	}
}

// TestPipelineParserStep feeds the pipeline what twitgen never emits,
// untagged documents and documents over MaxTags tags, and requires the
// same answers as a run of the stream filtered and cut by hand: the
// Source's Parser step drops the first and truncates the second.
func TestPipelineParserStep(t *testing.T) {
	docs, _ := shortStream(t, 20000, 9)
	cfg := fastConfig(partition.DS)
	cfg.MaxTags = 4
	var mixed, clean []stream.Document
	long := 0
	for i, d := range docs {
		if i%11 == 0 {
			mixed = append(mixed, stream.Document{ID: d.ID, Time: d.Time})
		}
		if i%7 == 0 && i+1 < len(docs) {
			d.Tags = d.Tags.Union(docs[i+1].Tags)
		}
		mixed = append(mixed, d)
		if d.Tags.Len() > cfg.MaxTags {
			d.Tags = tagset.New(d.Tags[:cfg.MaxTags]...)
			long++
		}
		clean = append(clean, d)
	}
	if long == 0 {
		t.Fatal("no document over MaxTags in the mixed stream")
	}
	run := func(docs []stream.Document) *Result {
		pipe, err := NewPipeline(cfg, SliceSource(docs))
		if err != nil {
			t.Fatal(err)
		}
		return pipe.Run()
	}
	a, b := run(mixed), run(clean)
	if a.DocsProcessed != int64(len(clean)) || b.DocsProcessed != a.DocsProcessed {
		t.Errorf("docs processed %d (mixed) and %d (clean), want %d", a.DocsProcessed, b.DocsProcessed, len(clean))
	}
	// The stage latencies are wall-clock readings; every other statistic
	// must match.
	for _, st := range []*Stats{&a.Stats, &b.Stats} {
		st.StageDocPartition, st.StageDocCoefficient, st.StageDocTrackerAccept = StageLatency{}, StageLatency{}, StageLatency{}
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("stats diverged:\nmixed %+v\nclean %+v", a.Stats, b.Stats)
	}
	if ca, cb := a.Coefficients(), b.Coefficients(); len(ca) == 0 || !reflect.DeepEqual(ca, cb) {
		t.Errorf("coefficients diverged (%d mixed, %d clean)", len(ca), len(cb))
	}
}

// TestPipelineFanoutSequentialExact: the sequential executor is a
// deterministic FIFO, and the hot-path fan-out knobs change only tuple
// packaging and Tracker task routing — never the per-Calculator
// notification order or the per-tagset report order — so the full pipeline
// (repartitions, Single Additions and all) must produce identical results
// under every TrackerTasks/NotifyBatch combination.
func TestPipelineFanoutSequentialExact(t *testing.T) {
	docs, _ := shortStream(t, 20000, 13)
	run := func(tasks, batch int) *Result {
		cfg := fastConfig(partition.DS)
		cfg.Trend = true
		cfg.TrendMinSupport = 1
		cfg.TrackerTasks = tasks
		cfg.NotifyBatch = batch
		pipe, err := NewPipeline(cfg, SliceSource(docs))
		if err != nil {
			t.Fatal(err)
		}
		return pipe.Run()
	}
	base := run(1, 0)
	baseCoeffs := base.Coefficients()
	if len(baseCoeffs) == 0 {
		t.Fatal("baseline run reported no coefficients")
	}
	for _, v := range []struct{ tasks, batch int }{{4, 0}, {1, 64}, {4, 64}} {
		res := run(v.tasks, v.batch)
		resCoeffs := res.Coefficients()
		if len(resCoeffs) != len(baseCoeffs) {
			t.Fatalf("tasks=%d batch=%d: %d coefficients, baseline %d",
				v.tasks, v.batch, len(resCoeffs), len(baseCoeffs))
		}
		for i := range baseCoeffs {
			a, b := resCoeffs[i], baseCoeffs[i]
			if a.J != b.J || a.CN != b.CN || a.Tags.Key() != b.Tags.Key() {
				t.Fatalf("tasks=%d batch=%d: coefficient %d = %+v, baseline %+v",
					v.tasks, v.batch, i, a, b)
			}
		}
		if res.Communication != base.Communication || res.LoadGini != base.LoadGini {
			t.Errorf("tasks=%d batch=%d: metrics %g/%g, baseline %g/%g",
				v.tasks, v.batch, res.Communication, res.LoadGini,
				base.Communication, base.LoadGini)
		}
		if res.Repartitions != base.Repartitions || res.SingleAdditions != base.SingleAdditions {
			t.Errorf("tasks=%d batch=%d: dynamics %d/%d, baseline %d/%d",
				v.tasks, v.batch, res.Repartitions, res.SingleAdditions,
				base.Repartitions, base.SingleAdditions)
		}
	}
}

// TestPipelineConcurrentFanout: the concurrent executor with both fan-out
// knobs up must still process the full stream and feed Tracker and trend
// detector.
func TestPipelineConcurrentFanout(t *testing.T) {
	docs, _ := shortStream(t, 20000, 5)
	cfg := fastConfig(partition.DS)
	cfg.Trend = true
	cfg.TrendMinSupport = 1
	cfg.TrackerTasks = 4
	cfg.NotifyBatch = 64
	pipe, err := NewPipeline(cfg, SliceSource(docs))
	if err != nil {
		t.Fatal(err)
	}
	res := pipe.Start().Wait()
	if res.DocsProcessed != 20000 {
		t.Errorf("docs processed = %d", res.DocsProcessed)
	}
	if len(res.Coefficients()) == 0 {
		t.Fatal("no coefficients with fan-out enabled")
	}
	if res.CoefficientsReceived == 0 {
		t.Error("tracker received no reports")
	}
	if res.Storm.Received("tracker") == 0 {
		t.Error("tracker component received no tuples")
	}
	if pipe.Trends().Tracked() == 0 {
		t.Error("trend detector tracked no predictors")
	}
	snap := pipe.Snapshot(10)
	if snap.TrackerTasks != 4 || snap.NotifyBatch != 64 {
		t.Errorf("snapshot knobs = %d/%d, want 4/64", snap.TrackerTasks, snap.NotifyBatch)
	}
}

// TestPipelineMultiDisseminatorAggregatedMetrics: the headline
// Communication/LoadGini and the notification count must be the
// Disseminator's own, on the Result, on a Snapshot and on the /metrics
// scrape alike.
func TestPipelineMultiDisseminatorAggregatedMetrics(t *testing.T) {
	docs, _ := shortStream(t, 30000, 21)
	cfg := fastConfig(partition.DS)
	pipe, err := NewPipeline(cfg, SliceSource(docs))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	pipe.RegisterMetrics(reg)
	res := pipe.Run()

	ds := &pipe.disseminator.Stats
	if ds.NotifiedDocs == 0 {
		t.Fatal("no notified documents")
	}
	wantComm := float64(ds.Notifications) / float64(ds.NotifiedDocs)
	wantGini := quality.GiniInts(ds.PerCalculator)

	var body strings.Builder
	if err := reg.WriteText(&body); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseText(strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	scraped := func(family string) float64 {
		f := fams[family]
		if f == nil || len(f.Samples) != 1 {
			t.Fatalf("scrape: family %s = %+v, want one series", family, f)
		}
		return f.Samples[0].Value
	}
	snap := pipe.Snapshot(1)
	for _, sf := range []struct {
		name               string
		comm, gini, notifs float64
	}{
		{"Result", res.Communication, res.LoadGini, float64(res.Notifications)},
		{"Snapshot", snap.Communication, snap.LoadGini, float64(snap.Notifications)},
		{"scrape", scraped("tagcorr_dissem_communication"), scraped("tagcorr_dissem_load_gini"), scraped("tagcorr_dissem_notifications_total")},
	} {
		if sf.comm != wantComm {
			t.Errorf("%s: Communication = %g, want %g", sf.name, sf.comm, wantComm)
		}
		if sf.gini != wantGini {
			t.Errorf("%s: LoadGini = %g, want %g", sf.name, sf.gini, wantGini)
		}
		if sf.notifs != float64(ds.Notifications) {
			t.Errorf("%s: notifications = %g, want %d", sf.name, sf.notifs, ds.Notifications)
		}
	}
}

// TestPipelineAutoScale runs the Section 7.3 scaling mode end to end: a
// light stream must leave some of the K calculators idle.
func TestPipelineAutoScale(t *testing.T) {
	docs, _ := shortStream(t, 30000, 23)
	cfg := fastConfig(partition.DS)
	cfg.K = 8
	cfg.AutoScaleLoad = 1 << 40 // absurdly high target: one calculator suffices
	pipe, err := NewPipeline(cfg, SliceSource(docs))
	if err != nil {
		t.Fatal(err)
	}
	res := pipe.Run()
	active := 0
	for _, c := range res.Dissem.PerCalculator {
		if c > 0 {
			active++
		}
	}
	if active != 1 {
		t.Errorf("active calculators = %d, want 1 under auto-scaling", active)
	}
	if len(res.Coefficients()) == 0 {
		t.Error("auto-scaled pipeline produced no coefficients")
	}
}
