package main

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/benchmark/kit"
	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trend"
)

// runSpec is one pass of a workload through the harness.
type runSpec struct {
	w       workload
	seed    int64
	seconds float64
	// spans turns tracing on: the harness spans, a poll that times
	// Pipeline.Snapshot every 100 ms, and runtime samples. nil is the
	// untraced run all end-to-end numbers come from.
	spans *kit.Spans
	// setups is how many times the service is set up. The first is the
	// one that is measured; the others follow the run (after the peak
	// resident set has been read, which they must not count towards) and
	// are torn down at once. setup_s is the median set-up plus the preload,
	// which only the measured one goes through.
	setups int
	// clock samples the host's speed for the whole pass.
	clock *kit.HostClock
	// restores is how many timed restore-to-first-answer rounds follow.
	restores int
}

// stampedEvent is a trend event and when the subscriber received it.
type stampedEvent struct {
	period int64
	at     time.Time
}

// service is a set-up pipeline with its serving layer, source and event
// subscriber.
type service struct {
	st   *kit.Stream
	cfg  core.Config
	scfg server.Config
	dir  string
	feed *feeder
	pipe *core.Pipeline
	h    *core.Handle
	srv  *server.Server

	cancelEvents func()
	eventsDone   chan struct{}
	events       []stampedEvent // owned by the subscriber until eventsDone

	fed       int // documents released so far
	setup     span
	preload   span
	installMS float64
}

// span is a measured interval. Its length at reference speed is the raw
// length times the host's speed over the interval (kit.HostClock).
type span struct{ from, to time.Time }

func (sp span) seconds() float64 { return sp.to.Sub(sp.from).Seconds() }

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

const gateTimeout = 60 * time.Second

// gateRate paces the gate prefix, in documents a second: about what the
// pipeline takes, slower than the spout would accept them. Set-up time is
// then half a second of prefix, which a slower host does not stretch, plus
// generating the stream, building the pipeline and installing the
// partitioning (0.15 s), to which whatever a change adds still adds in
// full. Closed loop, the whole of setup_s was that 0.15 s of CPU-bound work
// and moved by a third with the host.
const gateRate = 16000

// setup generates the stream, builds and starts the pipeline and its
// server and passes the install gate (timed as service.setup), then, if
// asked, feeds the workload's preload (timed as service.preload).
func setup(spec runSpec, preload bool) (*service, error) {
	t0 := time.Now()
	w := spec.w
	st, err := kit.Generate(w.Shape, spec.seed, w.streamDocs(spec.seconds))
	if err != nil {
		return nil, err
	}
	svc := &service{st: st, feed: newFeeder(st.Docs), eventsDone: make(chan struct{})}
	svc.setup.from = t0
	if w.Durable {
		if svc.dir, err = os.MkdirTemp("", "tagcorr-bench-"); err != nil {
			return nil, err
		}
	}
	svc.cfg = serviceConfig(st, svc.dir)
	svc.pipe, err = core.NewPipeline(svc.cfg, svc.feed.next)
	if err != nil {
		svc.removeDir()
		return nil, err
	}
	// Subscribe before the first document so no event is missed. The
	// buffer holds several periods' worth of events (about 250 each), so a
	// descheduled subscriber drops nothing.
	ch, cancel := svc.pipe.Trends().Subscribe(1 << 14)
	svc.cancelEvents = cancel
	go svc.subscribe(ch)

	started := time.Now()
	svc.h = svc.pipe.Start()
	svc.scfg = server.Config{
		TopK:    serverTopK,
		Refresh: serverRefresh * time.Millisecond,
		Flight:  svc.cfg.Flight,
		Logger:  quietLog,
	}
	if w.Durable {
		svc.scfg.History = archive.OpenReader(svc.dir)
	}
	svc.srv = server.New(svc.pipe, svc.h, st.Dict, svc.scfg)

	// The gate, in two steps. The Disseminator asks for the first
	// partitioning when it sees the first document past the first window,
	// so that document and no more is handed over until the partitioning is
	// installed: whatever rushed in before would pass uncounted. The rest of
	// the prefix, the second period, is then counted in full.
	gateStart := time.Now()
	for _, upto := range []int{kit.PeriodLen + 1, kit.GateDocs} {
		svc.release(phase{Upto: upto, Rate: gateRate, Start: time.Now()})
		deadline := time.Now().Add(gateTimeout)
		for {
			s := svc.pipe.Snapshot(1)
			if s.Epoch >= 1 && svc.installMS == 0 {
				svc.installMS = float64(time.Since(started)) / 1e6
			}
			if s.Epoch >= 1 && s.DocsProcessed == int64(svc.fed) {
				break
			}
			if time.Now().After(deadline) {
				svc.teardown()
				return nil, fmt.Errorf("install gate: epoch %d, %d of %d documents processed after %s",
					s.Epoch, s.DocsProcessed, svc.fed, gateTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	svc.setup.to = time.Now()
	spec.spans.Add("gate", 0, 0, gateStart, svc.setup.to)

	if preload && w.PreloadDocs > 0 {
		svc.preload.from = time.Now()
		svc.release(phase{Upto: svc.fed + w.PreloadDocs})
		if err := svc.quiesce(); err != nil {
			svc.teardown()
			return nil, err
		}
		svc.preload.to = time.Now()
	}
	return svc, nil
}

func (svc *service) release(p phase) {
	svc.fed = p.Upto
	svc.feed.release(p)
}

// quiesce waits until every released document is processed and the
// Tracker's intake has stopped moving, i.e. the preload's flushes have
// arrived.
func (svc *service) quiesce() error {
	const poll, still = 20 * time.Millisecond, 5 // 100 ms without a coefficient
	deadline := time.Now().Add(gateTimeout)
	last, same := int64(-1), 0
	for {
		s := svc.pipe.Snapshot(1)
		if s.CoefficientsReceived != last {
			last, same = s.CoefficientsReceived, 0
		} else if same++; same >= still && s.DocsProcessed == int64(svc.fed) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("preload: %d of %d documents processed after %s", s.DocsProcessed, svc.fed, gateTimeout)
		}
		time.Sleep(poll)
	}
}

func (svc *service) subscribe(ch <-chan trend.Event) {
	defer close(svc.eventsDone)
	for e := range ch {
		svc.events = append(svc.events, stampedEvent{period: e.Period, at: time.Now()})
		svc.feed.sawAlert(e.Period)
	}
}

// teardown ends the stream, waits for the run to drain and removes the
// archive directory.
func (svc *service) teardown() {
	svc.feed.end()
	svc.h.Wait()
	svc.stopServing()
	svc.removeDir()
}

func (svc *service) removeDir() {
	if svc.dir != "" {
		os.RemoveAll(svc.dir)
	}
}

// stopServing closes the server (its handlers keep answering from the last
// snapshot) and the event subscription.
func (svc *service) stopServing() {
	svc.srv.Close()
	svc.cancelEvents()
	<-svc.eventsDone
}

// measurement is everything one pass observed, before it is folded into
// named metrics.
type measurement struct {
	spec       runSpec
	cfg        core.Config
	streamHash uint64
	setups     []span
	preload    span
	installMS  float64

	feedDocs   int
	window     span    // clock start to Handle.Done
	cpuS       float64 // process CPU over the window
	allocBytes float64 // heap bytes allocated over the window
	finishS    float64 // Handle.Done to Handle.Wait
	rssPeakMB  float64
	creditS    float64 // how long the closed loop held the spout back

	alertLagMS    []float64 // every paired event
	periodLagP50  []float64 // per closed period
	periodLagP90  []float64
	liveMS        []float64
	histMS        []float64
	snapshotAgeMS []float64
	queryLateMS   []float64
	feedLateMS    []float64
	restores      []span
	restoreLoadMS []float64
	restoreAdopt  []float64
	requests      tally
	reading       span // clock start to the last issuer's last answer
	storm         span // the storm's first request to its last answer
	stormRequests int64
	stormClients  int

	snapshotMS     []float64
	goroutinesPeak int
	memBefore      runtime.MemStats
	memAfter       runtime.MemStats
	gcCPUS         float64 // GC CPU seconds over the window

	final    *core.Snapshot
	metrics  scrape
	refMAE   float64
	refCover float64
	refDone  bool

	attempted int64
	failed    int64
	problems  []string
}

func (m *measurement) problem(format string, args ...any) {
	m.failed++
	if len(m.problems) < 10 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// measure runs one pass: the set-up, the measured window, the drain, the
// correctness checks, the restores and the further set-ups.
func measure(spec runSpec) (*measurement, error) {
	m := &measurement{spec: spec}
	svc, err := setup(spec, true)
	if err != nil {
		return nil, err
	}
	defer svc.removeDir()
	m.setups = append(m.setups, svc.setup)
	m.preload = svc.preload
	m.streamHash = svc.st.Hash
	m.cfg = svc.cfg
	m.installMS = svc.installMS
	w := spec.w
	m.feedDocs = w.feedDocs(spec.seconds)
	firstDoc := svc.fed

	handler := svc.srv.Handler()
	pl := &pool{}

	traced := spec.spans != nil
	stopPoll, pollDone := make(chan struct{}), make(chan struct{})
	if traced {
		go func() {
			defer close(pollDone)
			m.pollSnapshots(svc, stopPoll)
		}()
		runtime.ReadMemStats(&m.memBefore)
		m.gcCPUS = -gcCPUSeconds()
	} else {
		close(pollDone)
	}

	// The clock starts here and stops when the stream has drained.
	m.window.from = time.Now()
	cpu0, alloc0 := cpuTime(), heapAllocBytes()
	svc.release(phase{Upto: firstDoc + m.feedDocs, Rate: w.FeedRate, Start: m.window.from, Measured: true})
	svc.feed.end()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-svc.h.Done()
		m.window.to = time.Now()
		m.cpuS = (cpuTime() - cpu0).Seconds()
		m.allocBytes = heapAllocBytes() - alloc0
		if traced {
			runtime.ReadMemStats(&m.memAfter)
			m.gcCPUS += gcCPUSeconds()
		}
	}()

	m.issue(handler, pl, svc.h.Done())

	<-drained
	close(stopPoll)
	<-pollDone
	res := svc.h.Wait()
	m.finishS = time.Since(m.window.to).Seconds()
	svc.stopServing()
	m.feedLateMS = svc.feed.lateMS
	m.creditS = svc.feed.creditWait.Seconds()
	for _, p := range svc.feed.starved {
		m.problem("no alert of period %d arrived within %s: the closed loop ran without its credit", p, creditTimeout)
	}

	m.rssPeakMB = peakRSSMB()

	before := m.check(svc, handler, pl, res.DocsProcessed, firstDoc)
	for i := 0; w.Durable && i < spec.restores; i++ {
		m.attempted++
		if err := m.restore(svc, before); err != nil {
			m.problem("restore %d: %v", i+1, err)
		}
	}
	for i := 1; i < spec.setups; i++ {
		again, err := setup(spec, false)
		if err != nil {
			return nil, err
		}
		again.teardown()
		m.setups = append(m.setups, again.setup)
	}
	return m, nil
}

// issue runs the workload's readers beside the feed: the live and the
// history issuer, open loop, and for a storm workload one closed-loop
// client per processor. Beside a paced feed the issuers' schedules are as
// long as the feed. A closed-loop feed takes as long as it takes, so there
// the schedules are twice the nominal length and cut off when the stream
// has drained.
func (m *measurement) issue(handler http.Handler, pl *pool, drained <-chan struct{}) {
	spec, w, start := m.spec, m.spec.w, m.window.from
	seconds := spec.seconds
	var stop <-chan struct{}
	if w.ClosedRate > 0 {
		seconds, stop = 2*seconds, drained
	}
	live := &issuer{c: kit.NewClient(handler), pool: pl, spans: spec.spans}
	hist := &issuer{c: kit.NewClient(handler), pool: pl, spans: spec.spans}
	liveSched := liveSchedule(spec.seed, liveQPS, seconds)
	var histSched []request
	if w.History {
		histSched = histSchedule(spec.seed, histQPS, seconds)
	}
	var liveLate, histLate []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.liveMS, liveLate = live.openLoop(liveSched, start, stop, nil)
	}()
	if len(histSched) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// List the periods untimed after each request so the next one
			// asks for the newest.
			m.histMS, histLate = hist.openLoop(histSched, start, stop, func() {
				hist.do(request{Route: rHistPeriods})
			})
		}()
	}
	var stormers []*issuer
	if n := w.stormRequests(spec.seconds); n > 0 {
		m.stormClients = runtime.GOMAXPROCS(0)
		sched := stormSchedule(spec.seed, n)
		var storm sync.WaitGroup
		for c := 0; c < m.stormClients; c++ {
			is := &issuer{c: kit.NewClient(handler), pool: pl, validateEvery: 64}
			stormers = append(stormers, is)
			storm.Add(1)
			go func(c int) {
				defer storm.Done()
				is.closedLoop(sched, c, m.stormClients)
			}(c)
		}
		storm.Wait()
		m.storm = span{start, time.Now()}
	}
	wg.Wait()
	m.reading = span{start, time.Now()}
	m.queryLateMS = append(liveLate, histLate...)
	m.snapshotAgeMS = live.snapshotAgeMS
	m.requests.merge(&live.tally)
	m.requests.merge(&hist.tally)
	for _, is := range stormers {
		m.requests.merge(&is.tally)
		m.stormRequests += is.tally.attempted - is.tally.failed
	}
}

// gcCPUSeconds is the CPU time the garbage collector has used so far.
func gcCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

// heapAllocBytes is the cumulative size of everything the process has
// allocated on the heap so far.
func heapAllocBytes() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(sample[0].Value.Uint64())
}

// pollSnapshots times Pipeline.Snapshot every 100 ms and tracks the
// goroutine count: the core layer's own cost, seen from outside.
func (m *measurement) pollSnapshots(svc *service, stop <-chan struct{}) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		_, d := m.spec.spans.Time("snapshot.poll", 0, 0, func() { svc.pipe.Snapshot(serverTopK) })
		m.snapshotMS = append(m.snapshotMS, float64(d)/1e6)
		if n := runtime.NumGoroutine(); n > m.goroutinesPeak {
			m.goroutinesPeak = n
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// speed is the host's speed over an interval (kit.HostClock): what the
// interval's times are multiplied by to read as on the reference host.
func (m *measurement) speed(sp span) float64 {
	s, _ := m.spec.clock.Speed(sp.from, sp.to)
	return s
}

// refSeconds is an interval's length at reference speed.
func (m *measurement) refSeconds(sp span) float64 { return sp.seconds() * m.speed(sp) }

func secondsOf(sps []span) []float64 {
	out := make([]float64, len(sps))
	for i, sp := range sps {
		out[i] = sp.seconds()
	}
	return out
}

func (m *measurement) refSecondsOf(sps []span) []float64 {
	out := make([]float64, len(sps))
	for i, sp := range sps {
		out[i] = m.refSeconds(sp)
	}
	return out
}

// endToEndValues folds a measurement into the gated end-to-end metrics.
func (m *measurement) endToEndValues() map[string]kit.Value {
	w := m.spec.w
	docs := float64(m.feedDocs)
	ops := docs + float64(m.requests.attempted)
	// A time that a schedule sets is reported as measured; one that the
	// program's speed sets (CPU time, the closed-loop feed, the preload, the
	// storm) at reference speed.
	feedS := m.window.seconds()
	if w.ClosedRate > 0 {
		feedS = m.refSeconds(m.window)
	}
	answered, readS := float64(m.requests.attempted-m.requests.failed), m.reading.seconds()
	if w.StormRate > 0 {
		answered, readS = float64(m.stormRequests), m.refSeconds(m.storm)
	}
	setup := kit.Median(secondsOf(m.setups))
	if !m.preload.from.IsZero() {
		setup += m.refSeconds(m.preload)
	}
	return map[string]kit.Value{
		"setup_s":            {Value: setup, N: len(m.setups)},
		"ingest_docs_per_s":  {Value: docs / feedS, N: m.feedDocs},
		"cpu_us_per_doc":     {Value: m.cpuS * m.speed(m.window) * 1e6 / docs, N: m.feedDocs},
		"alloc_bytes_per_op": {Value: m.allocBytes / ops, N: int(ops)},
		"rss_peak_mb":        {Value: m.rssPeakMB, N: 1},
		"read_qps":           {Value: answered / readS, N: int(answered)},
	}
}

// serviceValues are the service-level latencies: ungated metrics of the
// traced run, diagnostics of the untraced one. Processing times are taken
// at reference speed; the snapshot's age is set by the refresh timer.
func (m *measurement) serviceValues() map[string]kit.Value {
	win := m.speed(m.window)
	scaled := func(samples []float64, q float64) kit.Value {
		return kit.Value{Value: kit.Quantile(samples, q) * win, N: len(samples)}
	}
	return map[string]kit.Value{
		"alert_lag_p50_ms":    {Value: kit.Median(m.periodLagP50) * win, N: len(m.alertLagMS)},
		"alert_lag_p90_ms":    {Value: kit.Median(m.periodLagP90) * win, N: len(m.alertLagMS)},
		"query_live_p50_ms":   scaled(m.liveMS, 0.50),
		"query_live_p99_ms":   scaled(m.liveMS, 0.99),
		"query_hist_p50_ms":   scaled(m.histMS, 0.50),
		"query_hist_p90_ms":   scaled(m.histMS, 0.90),
		"snapshot_age_p95_ms": {Value: kit.Quantile(m.snapshotAgeMS, 0.95), N: len(m.snapshotAgeMS)},
		"restore_s":           {Value: kit.Median(m.refSecondsOf(m.restores)), N: len(m.restores)},
	}
}

// withUnits stamps each value with its definition's unit and replaces a
// value that could not be measured (no samples) by NaN's JSON-safe stand-in
// 0; the caller reports the gap as a failed check.
func withUnits(v map[string]kit.Value, defs []metricDef) map[string]kit.Value {
	for name, val := range v {
		d, _ := defByName(defs, name)
		val.Unit = d.Unit
		if math.IsNaN(val.Value) || math.IsInf(val.Value, 0) {
			val.Value = 0
			val.N = 0
		}
		v[name] = val
	}
	return v
}
