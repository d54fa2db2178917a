package server

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/storm"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/twitgen"
)

// flightServer starts a live pipeline with a flight recorder wired into
// both the pipeline and the server, on an unbounded generated stream.
func flightServer(t *testing.T, fcfg flight.Config, tune func(*Config)) (*flight.Recorder, *Server, *httptest.Server, func() *core.Result) {
	t.Helper()
	dict := tagset.NewDictionary()
	gcfg := twitgen.Default()
	gcfg.Seed = 23
	gen, err := twitgen.New(gcfg, dict)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.WindowSpan = stream.Minutes(1)
	cfg.ReportEvery = stream.Minutes(1)
	frec := flight.NewRecorder(fcfg)
	cfg.Flight = frec
	src, stop := core.StopSource(func() (stream.Document, bool) {
		return gen.Next(), true
	})
	pipe, err := core.NewPipeline(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	h := pipe.Start()
	scfg := Config{
		TopK:    20,
		Refresh: 5 * time.Millisecond,
		Flight:  frec,
		// Saturated test runs legitimately trip mailbox_pinned; keep those
		// verdict transitions out of the test log.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if tune != nil {
		tune(&scfg)
	}
	srv := New(pipe, h, dict, scfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	drain := func() *core.Result {
		stop()
		return h.Wait()
	}
	return frec, srv, ts, drain
}

// debugTracesResponse mirrors the /debug/traces payload.
type debugTracesResponse struct {
	DocsSeen       int64                 `json:"docs_seen"`
	TracesStarted  int64                 `json:"traces_started"`
	RetainedSample int64                 `json:"retained_sample"`
	RetainedSlow   int64                 `json:"retained_slow"`
	Discarded      int64                 `json:"discarded"`
	Traces         []flight.TraceSummary `json:"traces"`
}

// debugTraceResponse mirrors the /debug/traces/{id} payload.
type debugTraceResponse struct {
	ID         uint64 `json:"id"`
	Sampled    bool   `json:"sampled"`
	Retained   string `json:"retained"`
	Complete   bool   `json:"complete"`
	DurationUS int64  `json:"duration_us"`
	Spans      []struct {
		Stage   string `json:"stage"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		OffsetU int64  `json:"offset_us"`
		DurU    int64  `json:"dur_us"`
		Count   int    `json:"count"`
	} `json:"spans"`
}

// debugEventsResponse mirrors the /debug/events payload.
type debugEventsResponse struct {
	Count  int `json:"count"`
	Events []struct {
		Seq  uint64 `json:"seq"`
		Kind string `json:"kind"`
		AtMS int64  `json:"at_ms"`
		Wall string `json:"wall"`
		Msg  string `json:"msg"`
	} `json:"events"`
}

// TestDebugEndpointsDuringRun scrapes the flight-recorder endpoints
// concurrently with a saturated ingest stream (the CI race job runs this
// under -race), then checks the drained run exposes a complete sampled
// trace with in-order spans through /debug/traces/{id}.
func TestDebugEndpointsDuringRun(t *testing.T) {
	frec, _, ts, drain := flightServer(t, flight.Config{Sample: 8, SlowMS: 1 << 40, DoneCap: 8192}, nil)

	// Scrape all three debug endpoints plus health while documents flow.
	var wg sync.WaitGroup
	errc := make(chan error, 6)
	until := time.Now().Add(2 * time.Second)
	for _, path := range []string{"/debug/traces", "/debug/traces?limit=4", "/debug/events", "/debug/traces/1", "/healthz", "/readyz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			wasReady := false
			for time.Now().Before(until) {
				resp, err := ts.Client().Get(ts.URL + path)
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				// /debug/traces/1 may 404 until doc 1 finalizes. /readyz
				// answers 503 until the first document is processed and
				// 200 from then on, never 503 again. Everything else must
				// answer 200 throughout the run.
				ok := resp.StatusCode == http.StatusOK
				switch path {
				case "/debug/traces/1":
					ok = true
				case "/readyz":
					ok = ok || resp.StatusCode == http.StatusServiceUnavailable && !wasReady
					wasReady = wasReady || resp.StatusCode == http.StatusOK
				}
				if !ok {
					errc <- &http.ProtocolError{ErrorString: path + " status " + resp.Status}
					return
				}
			}
		}(path)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	res := drain()

	var list debugTracesResponse
	getJSON(t, ts.Client(), ts.URL+"/debug/traces?limit=2000", &list)
	if list.DocsSeen != res.DocsProcessed {
		t.Errorf("/debug/traces docs_seen = %d, pipeline processed %d", list.DocsSeen, res.DocsProcessed)
	}
	if list.RetainedSample == 0 {
		t.Fatal("no head-sampled trace retained over a multi-second run")
	}
	var full debugTraceResponse
	found := false
	for _, s := range list.Traces {
		if !s.Complete {
			continue
		}
		getJSON(t, ts.Client(), ts.URL+"/debug/traces/"+strconv.FormatUint(s.ID, 10), &full)
		found = true
		break
	}
	if !found {
		t.Fatal("no complete trace among the retained summaries")
	}
	if !full.Complete || len(full.Spans) < 4 {
		t.Fatalf("trace %d: complete=%v spans=%d", full.ID, full.Complete, len(full.Spans))
	}
	wantOrder := []string{flight.StageSpout, flight.StagePartition, flight.StageDisseminate, flight.StageCalculate}
	for i, want := range wantOrder {
		if full.Spans[i].Stage != want {
			t.Errorf("span[%d] = %s, want %s", i, full.Spans[i].Stage, want)
		}
	}
	// Under the concurrent executor the partition and disseminate branches
	// process the same doc tuple in parallel, so only the causal edges are
	// asserted here: everything starts at/after the spout stamp, and the
	// calculate span cannot start before the disseminate span that fed it.
	// (The strict stage-by-stage ordering is pinned by the sequential-run
	// test in internal/core.)
	starts := map[string]int64{}
	for _, sp := range full.Spans {
		starts[sp.Stage] = sp.StartNS
		if sp.DurU < 0 || sp.OffsetU < 0 {
			t.Errorf("span %s: negative offset/duration %d/%d", sp.Stage, sp.OffsetU, sp.DurU)
		}
		if sp.StartNS < full.Spans[0].StartNS {
			t.Errorf("span %s starts before the spout stamp", sp.Stage)
		}
	}
	if starts[flight.StageCalculate] < starts[flight.StageDisseminate] {
		t.Error("calculate span starts before the disseminate span that fed it")
	}

	// The events endpoint renders ring contents; feed it one event so the
	// check does not depend on the short run triggering a repartition.
	frec.RecordEvent(flight.EventCompaction, "synthetic pass for endpoint test")
	var evs debugEventsResponse
	getJSON(t, ts.Client(), ts.URL+"/debug/events", &evs)
	if evs.Count == 0 || len(evs.Events) != evs.Count {
		t.Fatalf("/debug/events count=%d events=%d", evs.Count, len(evs.Events))
	}
	last := evs.Events[len(evs.Events)-1]
	if last.Kind != flight.EventCompaction || last.Wall == "" {
		t.Errorf("last event = %+v, want the synthetic compaction event with a wall stamp", last)
	}

	// Liveness and readiness carry uptime and the watchdog verdict.
	var health HealthResponse
	getJSON(t, ts.Client(), ts.URL+"/healthz", &health)
	if health.UptimeMS <= 0 {
		t.Errorf("healthz uptime_ms = %d, want > 0", health.UptimeMS)
	}
	if health.Watchdog == "" {
		t.Error("healthz watchdog verdict empty")
	}
	var ready ReadyResponse
	getJSON(t, ts.Client(), ts.URL+"/readyz", &ready)
	if !ready.Ready || ready.UptimeMS <= 0 || ready.Watchdog == "" {
		t.Errorf("readyz after a processed run = %+v", ready)
	}
}

// TestDebugEndpointsWithoutRecorder: a server built without a flight
// recorder answers 404 on the debug surface and still serves health.
func TestDebugEndpointsWithoutRecorder(t *testing.T) {
	srv, ts := drainedServer(t)
	_ = srv
	for _, path := range []string{"/debug/traces", "/debug/traces/1", "/debug/events"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without recorder: status %d, want 404", path, resp.StatusCode)
		}
	}
	var health HealthResponse
	getJSON(t, ts.Client(), ts.URL+"/healthz", &health)
	if health.Watchdog == "" {
		t.Error("watchdog verdict missing without a recorder (the watchdog must run regardless)")
	}
}

// TestRequestLogging: with LogRequests on, every handled request emits a
// debug record carrying route, status and latency.
func TestRequestLogging(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	logged := func() string { mu.Lock(); defer mu.Unlock(); return buf.String() }
	w := lockedWriter{mu: &mu, w: &buf}
	_, _, ts, drain := flightServer(t, flight.Config{Sample: 0}, func(c *Config) {
		c.LogRequests = true
		c.Logger = slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
	})
	defer drain()

	var health HealthResponse
	getJSON(t, ts.Client(), ts.URL+"/healthz", &health)
	resp, err := ts.Client().Get(ts.URL + "/debug/traces/999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	out := logged()
	if !strings.Contains(out, "msg=\"http request\"") || !strings.Contains(out, "route=/healthz") {
		t.Errorf("request log missing the /healthz record:\n%s", out)
	}
	if !strings.Contains(out, "route=/debug/traces/{id}") || !strings.Contains(out, "status=404") {
		t.Errorf("request log missing the 404 trace lookup:\n%s", out)
	}
}

// lockedWriter serializes concurrent slog writes into a strings.Builder.
type lockedWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestWatchdogStaleSnapshotVerdict fault-injects a stall at the server
// level: an absurdly tight staleness threshold makes the snapshot_stale
// probe fire on the next tick, and the verdict must reach /healthz, the
// tagcorr_watchdog_* gauges and the flight event ring.
func TestWatchdogStaleSnapshotVerdict(t *testing.T) {
	frec, srv, ts, drain := flightServer(t, flight.Config{Sample: 0}, func(c *Config) {
		c.SnapshotStaleAfter = time.Nanosecond
		c.WatchdogInterval = time.Hour // tick manually: no timing dependence
	})

	// Wait until a snapshot exists (the probe needs one to age) and the
	// first document has been processed: before that the spout can park
	// while nothing has reached the Disseminator yet, which mailbox_pinned
	// rightly reads as no progress.
	deadline := time.After(30 * time.Second)
	for srv.Snapshot() == nil || srv.pipe.Snapshot(1).DocsProcessed == 0 {
		select {
		case <-deadline:
			t.Fatal("no snapshot and processed document within 30s")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	srv.Watchdog().Tick()

	if !srv.Watchdog().Stalled("snapshot_stale") {
		t.Fatal("snapshot_stale not stalled with a 1ns threshold")
	}
	var health HealthResponse
	getJSON(t, ts.Client(), ts.URL+"/healthz", &health)
	if !strings.Contains(health.Watchdog, "snapshot_stale") {
		t.Errorf("healthz watchdog = %q, want a snapshot_stale verdict", health.Watchdog)
	}

	fams := scrape(t, ts.Client(), ts.URL)
	gauge, ok := fams["tagcorr_watchdog_stalled_checks"]
	if !ok {
		t.Fatal("tagcorr_watchdog_stalled_checks missing from /metrics")
	}
	var stale float64
	for _, smp := range gauge.Samples {
		if smp.Labels["check"] == "snapshot_stale" {
			stale = smp.Value
		}
	}
	if stale != 1 {
		t.Errorf("stalled gauge for snapshot_stale = %g, want 1", stale)
	}
	if f, ok := fams["tagcorr_watchdog_stalls_total"]; !ok {
		t.Error("tagcorr_watchdog_stalls_total missing from /metrics")
	} else {
		var n float64
		for _, smp := range f.Samples {
			if smp.Labels["check"] == "snapshot_stale" {
				n = smp.Value
			}
		}
		if n < 1 {
			t.Errorf("stall transitions = %g, want >= 1", n)
		}
	}
	if frec.EventCount(flight.EventWatchdog) == 0 {
		t.Error("stall transition recorded no flight event")
	}

	// Recovery: a sane threshold and a fresh snapshot clear the verdict.
	srv.cfg.SnapshotStaleAfter = time.Hour
	srv.RefreshNow()
	srv.Watchdog().Tick()
	if srv.Watchdog().Stalled("snapshot_stale") {
		t.Error("verdict not cleared after recovery")
	}
	getJSON(t, ts.Client(), ts.URL+"/healthz", &health)
	if health.Watchdog != "ok" {
		t.Errorf("healthz watchdog after recovery = %q, want ok", health.Watchdog)
	}
	drain()
}

// endlessSpout emits one tuple per call until stop is set.
type endlessSpout struct{ stop *atomic.Bool }

func (s endlessSpout) Open(*storm.TaskContext) {}
func (s endlessSpout) NextTuple(out storm.Collector) bool {
	if s.stop.Load() {
		return false
	}
	out.Emit(storm.Tuple{Values: []interface{}{1}})
	return true
}

// gateBolt blocks in Execute on the first tuple it receives, after
// signalling entered, until the test closes release.
type gateBolt struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (b *gateBolt) Prepare(*storm.TaskContext) {}
func (b *gateBolt) Execute(storm.Tuple, storm.Collector) {
	b.once.Do(func() {
		close(b.entered)
		<-b.release
	})
}

// TestWatchdogMailboxPinnedVerdict wedges the one consumer of a spout on a
// channel the test owns, under the concurrent executor with a spout cap of
// 4, and drives the mailbox_pinned probe through manual watchdog ticks over
// the same two storm counters Pipeline.SpoutProgress reads. The wedge parks
// the spout once (the throttle hook fires once and then stays silent),
// which is why the verdict reads the parked-now gauge, not a park count. The verdict fires on
// the first judged tick after the wedge, stays on while it lasts, and
// clears on the first judged tick after the consumer is released and its
// intake moves. Every wait is on a channel or a counter; the sleeps only
// guarantee that a tick is judged, which needs pinnedWindow since the last.
func TestWatchdogMailboxPinnedVerdict(t *testing.T) {
	var stop atomic.Bool
	gate := &gateBolt{entered: make(chan struct{}), release: make(chan struct{})}
	b := storm.NewBuilder()
	b.Spout("source", func() storm.Spout { return endlessSpout{stop: &stop} }, 1)
	b.Bolt("disseminator", func() storm.Bolt { return gate }, 1).Shuffle("source")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tp.SetMaxSpoutPending(4)
	var parks atomic.Int64
	tp.SetThrottleHook(func() { parks.Add(1) })
	run := tp.StartConcurrent()
	released := false
	defer func() {
		if !released {
			close(gate.release)
		}
		stop.Store(true)
		run.Wait()
	}()

	st := tp.Stats()
	progress := func() (int64, int64) { return st.SpoutsParked(), st.Received("disseminator") }
	w := flight.NewWatchdog(nil, slog.New(slog.NewTextHandler(io.Discard, nil)), time.Hour,
		pinnedCheck(progress, run.Running))
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("no %s within 30s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	judged := func() {
		time.Sleep(pinnedWindow)
		w.Tick()
	}

	<-gate.entered
	waitFor("parked spout", func() bool { return st.SpoutsParked() == 1 })
	frozen := st.Received("disseminator")
	sat := parks.Load()
	w.Tick() // seeds the intake count
	if w.Stalled("mailbox_pinned") {
		t.Fatal("verdict on the seeding tick")
	}
	judged()
	if !w.Stalled("mailbox_pinned") {
		t.Fatalf("no verdict on the first judged tick of the wedge (parked %d, intake %d)", st.SpoutsParked(), st.Received("disseminator"))
	}
	for i := 0; i < 2; i++ {
		judged()
		if !w.Stalled("mailbox_pinned") {
			t.Fatalf("verdict cleared on judged tick %d while still wedged", i+2)
		}
	}
	if got := parks.Load(); got != sat {
		t.Errorf("spout parks rose from %d to %d while parked once", sat, got)
	}
	if got := st.Received("disseminator"); got != frozen {
		t.Errorf("intake moved from %d to %d through the wedge", frozen, got)
	}
	if n := w.Stalls("mailbox_pinned"); n != 1 {
		t.Errorf("%d ok→stalled transitions, want 1", n)
	}

	close(gate.release)
	released = true
	waitFor("intake after release", func() bool { return st.Received("disseminator") > frozen })
	judged()
	if w.Stalled("mailbox_pinned") {
		t.Fatal("verdict still on after the consumer was released")
	}
}
