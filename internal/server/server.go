// Package server exposes a running pipeline as a live HTTP query service —
// the serving layer of the tagcorrd daemon. While the concurrent executor
// is still consuming the stream, clients can ask for the current top-k
// Jaccard coefficients, the latest coefficient of a specific tag pair, the
// installed partition assignment, and the full communication/load/dataflow
// statistics.
//
// Queries never block the hot path: a background goroutine refreshes a
// cached core.Snapshot at a configurable interval, and every read endpoint
// except the pair lookup serves from that cache. The pair lookup goes to
// the Tracker directly (its read methods take the Tracker's own lock, held
// only briefly), so it returns point data fresher than the cache without
// scanning the full coefficient table.
//
// Endpoints (all GET; all compact one-line JSON unless noted — pipe to
// `jq .` to read one):
//
//	/topk?k=N             top-N coefficients so far (N capped at Config.TopK)
//	/pairs/{tagA}/{tagB}  latest coefficient reported for the pair
//	/trends?k=N           top trend deviations of the newest scored period
//	/trends/{tags...}     live predictor state of one tagset (2+ tags)
//	/events               SSE stream of trend events as they fire mid-run
//	/partition            installed partitions: epoch, per-partition tags+load
//	/stats                full snapshot: counters, quality stats, dataflow
//	/healthz              liveness plus run state
//	/readyz               readiness: 200 once the stream is flowing (503 before)
//	/history/periods      reporting periods archived on disk
//	/history/topk?period=P[&k=N]  top-N coefficients of one archived period
//	/history/pairs/{tagA}/{tagB}[?period=P]  archived coefficient of a pair
//	/history/trends?period=P[&k=N]  ranked trend deviations of one archived period
//
// The history endpoints serve from the archive directory's segment files
// (Config.History, an archive.Reader) with a small LRU of decoded
// segments, so they answer for periods arbitrarily far past the Tracker's
// retention window — including periods pruned from memory, runs of a
// previous process, and periods folded into the compacted tier. They
// answer 404 when the pipeline runs unarchived. A /history/pairs miss
// without ?period= carries a "truncated" field: true means the bounded
// newest-first scan (Config.HistoryPairScan) stopped before the oldest
// archived period, so the pair may exist in the unscanned remainder.
//
// The trend endpoints require the pipeline to run with Config.Trend; they
// answer 404 otherwise. /trends serves from the cached snapshot; the
// predictor lookup reads the detector's shard directly (fresher than the
// cache, briefly held lock); /events subscribes to the detector and pushes
// every event scored at or above the configured threshold as an SSE
// `trend` event, ending with an `end` event when the run drains. A slow
// /events client loses events (bounded buffer, counted drops) but never
// stalls the dataflow.
package server

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/procstat"
	"repro/internal/tagset"
	"repro/internal/telemetry"
)

// Config tunes the query service.
type Config struct {
	// TopK is the number of coefficients kept in the cached snapshot and
	// the cap on /topk?k=N. Default 100.
	TopK int
	// Refresh is the snapshot cache refresh interval. Default 250ms.
	Refresh time.Duration
	// History serves the /history endpoints from an archive directory
	// (nil: the endpoints answer 404). Point it at the directory the
	// pipeline archives into for live + historical queries from one
	// surface.
	History *archive.Reader
	// HistoryPairScan bounds the newest-first segment scan behind
	// /history/pairs without ?period=: a pair that was never reported
	// must not cost a decode of the entire archive per request. A miss
	// that hit the bound reports truncated=true. Default 64.
	HistoryPairScan int
	// Metrics is the telemetry registry /metrics serves. New registers the
	// pipeline's metric families plus the server's own (per-route request
	// latency, status classes, process gauges) into it, so pass a registry
	// that does not already hold them — or leave nil and New creates one.
	Metrics *telemetry.Registry
	// Flight is the pipeline's flight recorder, served on /debug/traces,
	// /debug/traces/{id} and /debug/events (nil: those routes answer 404;
	// the watchdog still runs and its verdict still reaches /healthz).
	// Pass the same recorder wired into the pipeline's Config.Flight.
	Flight *flight.Recorder
	// WatchdogInterval is the stall-check evaluation period. Default 1s.
	WatchdogInterval time.Duration
	// SnapshotStaleAfter: the snapshot_stale verdict fires when the cached
	// snapshot's age exceeds this while the run is live. Default
	// max(10s, 4×Refresh).
	SnapshotStaleAfter time.Duration
	// LogRequests emits one slog debug line per HTTP request (route
	// pattern, status, latency) through the statusWriter middleware.
	LogRequests bool
	// Logger receives watchdog verdicts and request logs (nil:
	// slog.Default).
	Logger *slog.Logger
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = 100
	}
	if c.Refresh <= 0 {
		c.Refresh = 250 * time.Millisecond
	}
	if c.HistoryPairScan <= 0 {
		c.HistoryPairScan = 64
	}
	if c.WatchdogInterval <= 0 {
		c.WatchdogInterval = time.Second
	}
	if c.SnapshotStaleAfter <= 0 {
		c.SnapshotStaleAfter = 10 * time.Second
		if v := 4 * c.Refresh; v > c.SnapshotStaleAfter {
			c.SnapshotStaleAfter = v
		}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server caches pipeline snapshots and serves the query endpoints. Create
// one with New after starting the pipeline; its refresh loop stops on its
// own when the run drains (taking one final snapshot first), or earlier
// via Close.
type Server struct {
	pipe   *core.Pipeline
	handle *core.Handle
	dict   *tagset.Dictionary
	cfg    Config

	// cur is what every snapshot route serves from; RefreshNow swaps it
	// whole, which is the only invalidation the rendered bodies have.
	cur atomic.Pointer[rendered]

	// now is the clock /stats measures the snapshot's age against; tests
	// replace it to advance time by hand.
	now func() time.Time

	// reg backs /metrics; routeHists and routeCounters are the per-route
	// middleware series, wired once in New.
	reg           *telemetry.Registry
	routeHists    map[string]*telemetry.Histogram
	routeCounters map[string]map[string]*telemetry.Counter
	started       time.Time

	// watchdog derives stall verdicts from the pipeline's counters; its
	// verdict is embedded in /healthz and /readyz and its transitions
	// become flight events and slog warnings.
	watchdog *flight.Watchdog

	stopOnce sync.Once
	stop     chan struct{}
	loopDone chan struct{}
}

// routes lists every served route pattern; the middleware uses the fixed
// pattern — never the concrete path — as the route label, keeping the
// metric cardinality bounded regardless of tag names in URLs.
var routes = []string{
	"/topk",
	"/pairs/{tagA}/{tagB}",
	"/trends",
	"/trends/{tagA}/{rest...}",
	"/events",
	"/partition",
	"/stats",
	"/healthz",
	"/readyz",
	"/history/periods",
	"/history/topk",
	"/history/pairs/{tagA}/{tagB}",
	"/history/trends",
	"/metrics",
	"/debug/traces",
	"/debug/traces/{id}",
	"/debug/events",
}

var statusClasses = []string{"2xx", "3xx", "4xx", "5xx"}

// New returns a Server for a started pipeline and launches its refresh
// loop. dict must be the dictionary the stream's tags were interned with;
// it renders tag identifiers back to strings in every response. The
// Tracker's maintained top-k bound is raised to the configured TopK so
// every cached snapshot is served from the incremental heaps rather than a
// scan.
func New(pipe *core.Pipeline, handle *core.Handle, dict *tagset.Dictionary, cfg Config) *Server {
	s := &Server{
		pipe:     pipe,
		handle:   handle,
		dict:     dict,
		cfg:      cfg.withDefaults(),
		started:  time.Now(),
		now:      time.Now,
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	pipe.Tracker().EnsureTopKBound(s.cfg.TopK)
	s.watchdog = flight.NewWatchdog(s.cfg.Flight, s.cfg.Logger, s.cfg.WatchdogInterval, s.watchdogChecks()...)
	s.initMetrics()
	s.RefreshNow()
	go s.refreshLoop()
	s.watchdog.Start()
	return s
}

// initMetrics builds the /metrics registry: the pipeline's families, the
// per-route middleware series, and the process gauges.
func (s *Server) initMetrics() {
	s.reg = s.cfg.Metrics
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	s.pipe.RegisterMetrics(s.reg)

	s.routeHists = make(map[string]*telemetry.Histogram, len(routes))
	s.routeCounters = make(map[string]map[string]*telemetry.Counter, len(routes))
	for _, route := range routes {
		s.routeHists[route] = s.reg.Histogram("tagcorr_http_request_seconds",
			"HTTP request latency by route pattern.",
			telemetry.Labels{"route": route})
		byClass := make(map[string]*telemetry.Counter, len(statusClasses))
		for _, class := range statusClasses {
			byClass[class] = s.reg.Counter("tagcorr_http_requests_total",
				"HTTP requests by route pattern and status class.",
				telemetry.Labels{"route": route, "class": class})
		}
		s.routeCounters[route] = byClass
	}

	s.reg.GaugeFunc("tagcorr_process_uptime_seconds",
		"Seconds since the serving layer started.",
		nil, func() float64 { return time.Since(s.started).Seconds() })
	s.reg.GaugeFunc("tagcorr_process_rss_bytes",
		"Process resident set size (0 on platforms without /proc).",
		nil, func() float64 { return float64(procstat.RSSBytes()) })
	s.reg.GaugeFunc("tagcorr_process_goroutines",
		"Live goroutines.",
		nil, func() float64 { return float64(runtime.NumGoroutine()) })

	for _, name := range s.watchdog.Names() {
		name := name
		s.reg.GaugeFunc("tagcorr_watchdog_stalled_checks",
			"Current stall verdict per watchdog check (1: stalled).",
			telemetry.Labels{"check": name}, func() float64 {
				if s.watchdog.Stalled(name) {
					return 1
				}
				return 0
			})
		s.reg.CounterFunc("tagcorr_watchdog_stalls_total",
			"ok→stalled verdict transitions per watchdog check.",
			telemetry.Labels{"check": name}, func() int64 { return s.watchdog.Stalls(name) })
	}
	s.reg.CounterFunc("tagcorr_watchdog_ticks_total",
		"Completed watchdog evaluation rounds.",
		nil, s.watchdog.Ticks)
}

// Registry exposes the telemetry registry behind /metrics.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// refreshLoop re-snapshots the pipeline every cfg.Refresh until the run
// drains or Close is called, then takes one final snapshot so the cache
// converges to the run's final state.
func (s *Server) refreshLoop() {
	defer close(s.loopDone)
	t := time.NewTicker(s.cfg.Refresh)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.RefreshNow()
		case <-s.handle.Done():
			s.RefreshNow()
			return
		case <-s.stop:
			s.RefreshNow()
			return
		}
	}
}

// RefreshNow re-snapshots the pipeline immediately. Handlers keep serving
// the previous snapshot until the new one is swapped in; the bodies
// rendered from the previous one go with it.
func (s *Server) RefreshNow() {
	s.cur.Store(&rendered{snap: s.pipe.Snapshot(s.cfg.TopK), rss: procstat.RSSBytes()})
}

// rendered is what the serving layer holds between two refreshes: one
// snapshot, the process RSS sampled beside it, and the encoded response
// bodies of the routes that are pure functions of the two (/topk, /trends,
// /partition and the static part of /stats). A body is encoded by the
// first request that asks for it — never eagerly, so a deployment nobody
// queries encodes nothing — and served as bytes from then on. Handlers
// clamp k to Config.TopK before it becomes part of a key, so a rendered
// snapshot holds at most TopK bodies per route however clients vary k.
// Because the bodies hang off the value that holds the snapshot, a response
// is always rendered from exactly one snapshot and a refresh drops them
// without any bookkeeping.
type rendered struct {
	snap *core.Snapshot
	rss  int64

	mu      sync.Mutex
	bodies  map[bodyKey]*renderedBody
	encodes atomic.Int64 // bodies encoded; the cache tests hold it to len(bodies)
}

// bodyKey names one cached body: the route pattern and the clamped k (0 on
// routes without one).
type bodyKey struct {
	route string
	k     int
}

// renderedBody is one cache entry. The Once makes clients that arrive
// together after a refresh encode once, not each.
type renderedBody struct {
	once sync.Once
	data []byte
}

// body returns the encoded response for key, calling build and encoding its
// result on the first request for that key.
func (r *rendered) body(key bodyKey, build func() interface{}) []byte {
	r.mu.Lock()
	b := r.bodies[key]
	if b == nil {
		if r.bodies == nil {
			r.bodies = make(map[bodyKey]*renderedBody)
		}
		b = new(renderedBody)
		r.bodies[key] = b
	}
	r.mu.Unlock()
	b.once.Do(func() {
		r.encodes.Add(1)
		data, err := json.Marshal(build())
		if err != nil {
			// The response types hold nothing unencodable; keep the route
			// answering valid JSON regardless.
			data = []byte(`{"error":"encode failed"}`)
		}
		b.data = append(data, '\n')
	})
	return b.data
}

// Close stops the watchdog and the refresh loop (after a final refresh)
// and waits for both to exit. The handlers stay functional on the last
// cached snapshot.
func (s *Server) Close() {
	s.watchdog.Close()
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.loopDone
}

// Watchdog exposes the stall watchdog (the daemon's SIGQUIT dump reads
// its verdict).
func (s *Server) Watchdog() *flight.Watchdog { return s.watchdog }

// Snapshot returns the currently cached snapshot.
func (s *Server) Snapshot() *core.Snapshot { return s.cur.Load().snap }

// Handler returns the route multiplexer serving all endpoints. Every route
// runs behind the instrumentation middleware (latency histogram + status
// class counter, labelled by the fixed route pattern).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /topk", s.instrument("/topk", s.handleTopK))
	mux.HandleFunc("GET /pairs/{tagA}/{tagB}", s.instrument("/pairs/{tagA}/{tagB}", s.handlePair))
	mux.HandleFunc("GET /trends", s.instrument("/trends", s.handleTrends))
	mux.HandleFunc("GET /trends/{tagA}/{rest...}", s.instrument("/trends/{tagA}/{rest...}", s.handleTrendLookup))
	mux.HandleFunc("GET /events", s.instrument("/events", s.handleEvents))
	mux.HandleFunc("GET /partition", s.instrument("/partition", s.handlePartition))
	mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	mux.HandleFunc("GET /history/periods", s.instrument("/history/periods", s.handleHistoryPeriods))
	mux.HandleFunc("GET /history/topk", s.instrument("/history/topk", s.handleHistoryTopK))
	mux.HandleFunc("GET /history/pairs/{tagA}/{tagB}", s.instrument("/history/pairs/{tagA}/{tagB}", s.handleHistoryPair))
	mux.HandleFunc("GET /history/trends", s.instrument("/history/trends", s.handleHistoryTrends))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.reg.Handler().ServeHTTP))
	mux.HandleFunc("GET /debug/traces", s.instrument("/debug/traces", s.handleDebugTraces))
	mux.HandleFunc("GET /debug/traces/{id}", s.instrument("/debug/traces/{id}", s.handleDebugTrace))
	mux.HandleFunc("GET /debug/events", s.instrument("/debug/events", s.handleDebugEvents))
	return mux
}

// statusWriter captures the response status for the middleware. It
// forwards Flush so the /events SSE stream keeps working behind it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the route's latency histogram and status
// class counter. The route label is the fixed pattern, not the request
// path, so metric cardinality never grows with tag names.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.routeHists[route]
	byClass := s.routeCounters[route]
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		took := time.Since(start)
		hist.Record(took)
		class := "2xx"
		switch {
		case sw.status >= 500:
			class = "5xx"
		case sw.status >= 400:
			class = "4xx"
		case sw.status >= 300:
			class = "3xx"
		}
		byClass[class].Inc()
		if s.cfg.LogRequests {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			s.cfg.Logger.Debug("http request",
				"route", route, "status", status, "latency_ms", took.Milliseconds())
		}
	}
}

// queryK parses the optional ?k=N of the ranking routes (default 20),
// writing the 400 itself when it is not a positive integer.
func queryK(w http.ResponseWriter, q url.Values) (k int, ok bool) {
	v := q.Get("k")
	if v == "" {
		return 20, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		httpError(w, http.StatusBadRequest, "k must be a positive integer")
		return 0, false
	}
	return n, true
}

// writeJSON answers status with v as one line of compact JSON. It is the
// one place a response is encoded per request; the snapshot routes go
// through writeBody with bytes encoded once per snapshot.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best effort; the client is gone on error
}

// writeBody answers 200 with an already encoded JSON body.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck // best effort; the client is gone on error
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
