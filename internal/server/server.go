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
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/jaccard"
	"repro/internal/partition"
	"repro/internal/procstat"
	"repro/internal/tagset"
	"repro/internal/telemetry"
	"repro/internal/trend"
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
	// CheckpointOverdueAfter: the checkpoint_overdue verdict fires when an
	// archiving pipeline has not completed a checkpoint for this long
	// while running. Default 2m.
	CheckpointOverdueAfter time.Duration
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
	if c.CheckpointOverdueAfter <= 0 {
		c.CheckpointOverdueAfter = 2 * time.Minute
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

// Coefficient is the JSON rendering of one Jaccard coefficient.
type Coefficient struct {
	Tags []string `json:"tags"`
	J    float64  `json:"j"`
	CN   int64    `json:"cn"`
}

func (s *Server) coefficients(in []jaccard.Coefficient) []Coefficient {
	out := make([]Coefficient, len(in))
	for i, c := range in {
		out[i] = Coefficient{Tags: s.dict.Strings(c.Tags), J: c.J, CN: c.CN}
	}
	return out
}

// TopKResponse is the /topk payload.
type TopKResponse struct {
	DocsProcessed int64         `json:"docs_processed"`
	Periods       int           `json:"periods"`
	K             int           `json:"k"`
	Top           []Coefficient `json:"top"`
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

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	k, ok := queryK(w, r.URL.Query())
	if !ok {
		return
	}
	k = min(k, s.cfg.TopK)
	cur := s.cur.Load()
	writeBody(w, cur.body(bodyKey{route: "/topk", k: k}, func() interface{} { return s.topKResponse(cur.snap, k) }))
}

// topKResponse builds the /topk payload of one snapshot; k is already
// clamped.
func (s *Server) topKResponse(snap *core.Snapshot, k int) TopKResponse {
	top := snap.TopK
	if len(top) > k {
		top = top[:k]
	}
	return TopKResponse{
		DocsProcessed: snap.DocsProcessed,
		Periods:       len(snap.Periods),
		K:             k,
		Top:           s.coefficients(top),
	}
}

// PairResponse is the /pairs/{tagA}/{tagB} payload. Evicted marks answers
// served from the Tracker's LRU of pruned coefficients: the pair's
// reporting periods have left the retention window, and the value is the
// latest one seen before pruning.
type PairResponse struct {
	Tags    []string `json:"tags"`
	J       float64  `json:"j"`
	CN      int64    `json:"cn"`
	Period  int64    `json:"period"`
	Evicted bool     `json:"evicted,omitempty"`
}

// handlePair looks the pair up in the Tracker directly — point queries are
// cheap under the owning shard's lock and this keeps them as fresh as the
// last Calculator report rather than the last cache refresh. Pairs whose
// periods were pruned by retention are answered from the evicted LRU when
// the pipeline has one configured.
func (s *Server) handlePair(w http.ResponseWriter, r *http.Request) {
	a, okA := s.dict.Lookup(r.PathValue("tagA"))
	b, okB := s.dict.Lookup(r.PathValue("tagB"))
	if !okA || !okB {
		httpError(w, http.StatusNotFound, "unknown tag")
		return
	}
	set := tagset.New(a, b)
	if set.Len() != 2 {
		httpError(w, http.StatusBadRequest, "tags must differ")
		return
	}
	c, period, evicted, ok := s.pipe.Tracker().LookupDetail(set.Key())
	if !ok {
		httpError(w, http.StatusNotFound, "no coefficient reported for pair")
		return
	}
	writeJSON(w, http.StatusOK, PairResponse{Tags: s.dict.Strings(c.Tags), J: c.J, CN: c.CN, Period: period, Evicted: evicted})
}

// TrendEvent is the JSON rendering of one scored trend deviation, shared by
// /trends and the /events SSE feed.
type TrendEvent struct {
	Tags      []string `json:"tags"`
	Period    int64    `json:"period"`
	Predicted float64  `json:"predicted"`
	Observed  float64  `json:"observed"`
	Score     float64  `json:"score"`
	Rising    bool     `json:"rising"`
	CN        int64    `json:"cn"`
}

func (s *Server) trendEvent(e trend.Event) TrendEvent {
	return TrendEvent{
		Tags:      s.dict.Strings(e.Tags),
		Period:    e.Period,
		Predicted: e.Predicted,
		Observed:  e.Observed,
		Score:     e.Score,
		Rising:    e.Rising,
		CN:        e.CN,
	}
}

// TrendsResponse is the /trends payload: the top deviations of the newest
// scored period, from the cached snapshot.
type TrendsResponse struct {
	LatestPeriod int64        `json:"latest_period"`
	K            int          `json:"k"`
	Top          []TrendEvent `json:"top"`
	Tracked      int          `json:"tracked"`
	Scored       int64        `json:"events_scored"`
	Published    int64        `json:"events_published"`
	Threshold    float64      `json:"threshold"`
}

// trendDetector returns the pipeline's streaming detector, writing the
// 404 the trend endpoints share when the pipeline runs without one.
func (s *Server) trendDetector(w http.ResponseWriter) *trend.Stream {
	det := s.pipe.Trends()
	if det == nil {
		httpError(w, http.StatusNotFound, "trend detection disabled (core.Config.Trend)")
	}
	return det
}

func (s *Server) handleTrends(w http.ResponseWriter, r *http.Request) {
	det := s.trendDetector(w)
	if det == nil {
		return
	}
	k, ok := queryK(w, r.URL.Query())
	if !ok {
		return
	}
	// The cached view holds at most the detector's maintained heap bound;
	// clamp K so the response never claims a larger ranking than it can
	// carry.
	k = min(k, s.cfg.TopK, det.Config().TopK)
	cur := s.cur.Load()
	writeBody(w, cur.body(bodyKey{route: "/trends", k: k}, func() interface{} { return s.trendsResponse(cur.snap, det, k) }))
}

// trendsResponse builds the /trends payload of one snapshot; k is already
// clamped.
func (s *Server) trendsResponse(snap *core.Snapshot, det *trend.Stream, k int) TrendsResponse {
	v := snap.Trends
	top := v.Top
	if len(top) > k {
		top = top[:k]
	}
	resp := TrendsResponse{
		LatestPeriod: v.LatestPeriod,
		K:            k,
		Top:          make([]TrendEvent, len(top)),
		Tracked:      v.Stats.Tracked,
		Scored:       v.Stats.Scored,
		Published:    v.Stats.Published,
		Threshold:    det.Config().Threshold,
	}
	for i, e := range top {
		resp.Top[i] = s.trendEvent(e)
	}
	return resp
}

// TrendLookupResponse is the /trends/{tags...} payload: the live EWMA
// predictor of one tagset, read shard-directly (fresher than the cache).
type TrendLookupResponse struct {
	Tags        []string `json:"tags"`
	Expectation float64  `json:"expectation"`
	Base        float64  `json:"base"`
	LastPeriod  int64    `json:"last_period"`
	Seen        int      `json:"seen"`
}

func (s *Server) handleTrendLookup(w http.ResponseWriter, r *http.Request) {
	det := s.trendDetector(w)
	if det == nil {
		return
	}
	names := append([]string{r.PathValue("tagA")}, strings.Split(r.PathValue("rest"), "/")...)
	ids := make([]tagset.Tag, len(names))
	for i, name := range names {
		id, ok := s.dict.Lookup(name)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown tag")
			return
		}
		ids[i] = id
	}
	set := tagset.New(ids...)
	if set.Len() != len(names) || set.Len() < 2 {
		httpError(w, http.StatusBadRequest, "need 2 or more distinct tags")
		return
	}
	p, ok := det.Predictor(set.Key())
	if !ok {
		httpError(w, http.StatusNotFound, "no predictor for tagset")
		return
	}
	writeJSON(w, http.StatusOK, TrendLookupResponse{
		Tags:        s.dict.Strings(set),
		Expectation: p.Expectation,
		Base:        p.Base,
		LastPeriod:  p.LastPeriod,
		Seen:        p.Seen,
	})
}

// handleEvents is the SSE feed: every trend event scored at or above the
// detector's threshold is pushed as an `event: trend` frame while the run
// streams. When the run drains, buffered events are flushed and the stream
// ends with an `event: end` frame; a client disconnect ends it immediately.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	det := s.trendDetector(w)
	if det == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, cancel := det.Subscribe(256)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": tagcorrd trend events\n\n")
	fl.Flush()

	writeEvent := func(e trend.Event) bool {
		data, err := json.Marshal(s.trendEvent(e))
		if err != nil {
			return false
		}
		_, err = fmt.Fprintf(w, "event: trend\ndata: %s\n\n", data)
		fl.Flush()
		return err == nil
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e := <-ch:
			if !writeEvent(e) {
				return
			}
		case <-s.handle.Done():
			// Drained: no further events can be scored. Wait for the
			// detector's broker goroutine to fan out everything already
			// published, then flush what is buffered and close the stream.
			det.Sync()
			for {
				select {
				case e := <-ch:
					if !writeEvent(e) {
						return
					}
				default:
					fmt.Fprint(w, "event: end\ndata: {}\n\n")
					fl.Flush()
					return
				}
			}
		}
	}
}

// history returns the archive reader, writing the shared 404 when the
// service runs without one.
func (s *Server) history(w http.ResponseWriter) *archive.Reader {
	if s.cfg.History == nil {
		httpError(w, http.StatusNotFound, "archive disabled (core.Config.ArchiveDir)")
	}
	return s.cfg.History
}

// historyCoefficients renders archived coefficients. Unlike the live
// path it uses the placeholder-tolerant Names: a segment written by a
// previous process (or after the last checkpoint) can reference tags the
// rebuilt dictionary has not re-interned yet, and a history query must
// render them, not panic.
func (s *Server) historyCoefficients(in []jaccard.Coefficient) []Coefficient {
	out := make([]Coefficient, len(in))
	for i, c := range in {
		out[i] = Coefficient{Tags: s.dict.Names(c.Tags), J: c.J, CN: c.CN}
	}
	return out
}

// HistoryPeriodsResponse is the /history/periods payload: every reporting
// period with a segment on disk, ascending — a superset of the retained
// in-memory periods, surviving both retention pruning and restarts.
type HistoryPeriodsResponse struct {
	Periods []int64 `json:"periods"`
	Count   int     `json:"count"`
}

func (s *Server) handleHistoryPeriods(w http.ResponseWriter, r *http.Request) {
	rd := s.history(w)
	if rd == nil {
		return
	}
	periods, err := rd.Periods()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, HistoryPeriodsResponse{Periods: periods, Count: len(periods)})
}

// HistoryTopKResponse is the /history/topk payload: one archived period's
// top coefficients, decoded from its segment file. Torn reports a tail
// lost to a crash before it was flushed; the coefficients before the tear
// are served regardless. TrendEvents counts the period's archived trend
// deviations.
type HistoryTopKResponse struct {
	Period      int64         `json:"period"`
	K           int           `json:"k"`
	Torn        bool          `json:"torn,omitempty"`
	TrendEvents int           `json:"trend_events"`
	Top         []Coefficient `json:"top"`
}

func (s *Server) handleHistoryTopK(w http.ResponseWriter, r *http.Request) {
	rd := s.history(w)
	if rd == nil {
		return
	}
	q := r.URL.Query()
	period, err := strconv.ParseInt(q.Get("period"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "period must be an integer")
		return
	}
	k, ok := queryK(w, q)
	if !ok {
		return
	}
	seg, err := rd.Segment(period)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if seg == nil {
		httpError(w, http.StatusNotFound, "no archived segment for period")
		return
	}
	top := seg.Coeffs
	if len(top) > k {
		top = top[:k]
	}
	writeJSON(w, http.StatusOK, HistoryTopKResponse{
		Period:      period,
		K:           k,
		Torn:        seg.Torn,
		TrendEvents: len(seg.Trends),
		Top:         s.historyCoefficients(top),
	})
}

// HistoryPairResponse is the /history/pairs payload: the archived
// coefficient of one pair, from the requested period or — without
// ?period= — the newest archived period that reported it.
type HistoryPairResponse struct {
	Tags   []string `json:"tags"`
	J      float64  `json:"j"`
	CN     int64    `json:"cn"`
	Period int64    `json:"period"`
}

func (s *Server) handleHistoryPair(w http.ResponseWriter, r *http.Request) {
	rd := s.history(w)
	if rd == nil {
		return
	}
	a, okA := s.dict.Lookup(r.PathValue("tagA"))
	b, okB := s.dict.Lookup(r.PathValue("tagB"))
	if !okA || !okB {
		httpError(w, http.StatusNotFound, "unknown tag")
		return
	}
	set := tagset.New(a, b)
	if set.Len() != 2 {
		httpError(w, http.StatusBadRequest, "tags must differ")
		return
	}

	var (
		c         jaccard.Coefficient
		period    int64
		ok        bool
		truncated bool
	)
	if v := r.URL.Query().Get("period"); v != "" {
		p, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "period must be an integer")
			return
		}
		seg, err := rd.Segment(p)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if seg != nil {
			c, ok = seg.Coefficient(set.Key())
			period = p
		}
	} else {
		var err error
		c, period, ok, truncated, err = rd.LookupPair(set.Key(), s.cfg.HistoryPairScan)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	if !ok {
		// truncated distinguishes "never archived" (false) from "not in
		// the newest HistoryPairScan periods; older ones were not
		// scanned" (true) — without it, a pair older than the scan bound
		// would 404 exactly like a pair that never existed.
		writeJSON(w, http.StatusNotFound, map[string]interface{}{
			"error":     "no archived coefficient for pair",
			"truncated": truncated,
		})
		return
	}
	writeJSON(w, http.StatusOK, HistoryPairResponse{Tags: s.dict.Names(c.Tags), J: c.J, CN: c.CN, Period: period})
}

// HistoryTrendsResponse is the /history/trends payload: one archived
// period's scored trend deviations, ranked by descending score, decoded
// from the same segments /history/topk serves. It answers for any
// archived period — including ones whose events predate this process —
// regardless of whether the live pipeline runs with trend detection.
type HistoryTrendsResponse struct {
	Period      int64        `json:"period"`
	K           int          `json:"k"`
	Torn        bool         `json:"torn,omitempty"`
	TrendEvents int          `json:"trend_events"` // total archived for the period
	Top         []TrendEvent `json:"top"`
}

func (s *Server) handleHistoryTrends(w http.ResponseWriter, r *http.Request) {
	rd := s.history(w)
	if rd == nil {
		return
	}
	q := r.URL.Query()
	period, err := strconv.ParseInt(q.Get("period"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "period must be an integer")
		return
	}
	k, ok := queryK(w, q)
	if !ok {
		return
	}
	seg, err := rd.Segment(period)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if seg == nil {
		httpError(w, http.StatusNotFound, "no archived segment for period")
		return
	}
	top := seg.Trends
	if len(top) > k {
		top = top[:k]
	}
	resp := HistoryTrendsResponse{
		Period:      period,
		K:           k,
		Torn:        seg.Torn,
		TrendEvents: len(seg.Trends),
		Top:         make([]TrendEvent, len(top)),
	}
	for i, e := range top {
		resp.Top[i] = s.historyTrendEvent(e)
	}
	writeJSON(w, http.StatusOK, resp)
}

// historyTrendEvent renders an archived trend event. Like
// historyCoefficients it uses the placeholder-tolerant Names: archived
// events can reference tags the rebuilt dictionary has not re-interned.
func (s *Server) historyTrendEvent(e trend.Event) TrendEvent {
	return TrendEvent{
		Tags:      s.dict.Names(e.Tags),
		Period:    e.Period,
		Predicted: e.Predicted,
		Observed:  e.Observed,
		Score:     e.Score,
		Rising:    e.Rising,
		CN:        e.CN,
	}
}

// PartitionInfo is one partition in the /partition payload.
type PartitionInfo struct {
	Index int      `json:"index"`
	Load  int64    `json:"load"`
	Tags  []string `json:"tags"`
}

// PartitionResponse is the /partition payload.
type PartitionResponse struct {
	Epoch      int             `json:"epoch"`
	Merges     int             `json:"merges"`
	Pending    bool            `json:"repartition_pending"`
	Partitions []PartitionInfo `json:"partitions"`
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	cur := s.cur.Load()
	writeBody(w, cur.body(bodyKey{route: "/partition"}, func() interface{} { return s.partitionResponse(cur.snap) }))
}

// partitionResponse builds the /partition payload of one snapshot.
func (s *Server) partitionResponse(snap *core.Snapshot) PartitionResponse {
	resp := PartitionResponse{
		Epoch:      snap.Epoch,
		Merges:     snap.Merges,
		Pending:    snap.RepartitionPending,
		Partitions: make([]PartitionInfo, len(snap.Partitions)),
	}
	for i, p := range snap.Partitions {
		resp.Partitions[i] = s.partitionInfo(i, p)
	}
	return resp
}

func (s *Server) partitionInfo(i int, p partition.Partition) PartitionInfo {
	return PartitionInfo{Index: i, Load: p.Load, Tags: s.dict.Strings(p.Tags)}
}

// StatsResponse is the /stats payload: the full snapshot with tag sets
// rendered to strings. Only the head field is rendered per request; the
// embedded remainder is encoded once per snapshot and served from the
// rendered snapshot until the refresh loop swaps a new one in.
type StatsResponse struct {
	// SnapshotAgeMS is how old the served snapshot is (milliseconds since
	// its consistent Tracker pass, monotonic clock). Under CPU saturation
	// the refresh loop can stall on operator locks; this surfaces it.
	SnapshotAgeMS int64 `json:"snapshot_age_ms"`

	statsStatic
}

// statsStatic is the remainder of the /stats payload — everything that
// only changes when the cached snapshot does.
type statsStatic struct {
	// RSSBytes is the process resident set size (0 on platforms without
	// /proc), sampled when the snapshot was taken: as old as every other
	// field here, at most Config.Refresh.
	RSSBytes int64 `json:"rss_bytes"`

	DocsProcessed     int64 `json:"docs_processed"`
	DocsBeforeInstall int64 `json:"docs_before_install"`
	NotifiedDocs      int64 `json:"notified_docs"`
	Notifications     int64 `json:"notifications"`
	UncoveredDocs     int64 `json:"uncovered_docs"`

	Communication float64 `json:"communication"`
	LoadGini      float64 `json:"load_gini"`
	PerCalculator []int64 `json:"per_calculator"`

	Epoch              int  `json:"epoch"`
	RepartitionPending bool `json:"repartition_pending"`
	Repartitions       int  `json:"repartitions"`
	RepartitionsComm   int  `json:"repartitions_comm"`
	RepartitionsLoad   int  `json:"repartitions_load"`
	RepartitionsBoth   int  `json:"repartitions_both"`
	SingleAdditions    int  `json:"single_additions"`
	Merges             int  `json:"merges"`

	Periods               []int64 `json:"periods"`
	CoefficientsReceived  int64   `json:"coefficients_received"`
	CoefficientsDuplicate int64   `json:"coefficients_duplicate"`

	// TrackerTasks and NotifyBatch are the hot-path fan-out knobs: Tracker
	// operator parallelism and the Disseminator→Calculator notification
	// batch size (0: one tuple per document × Calculator).
	TrackerTasks int `json:"tracker_tasks"`
	NotifyBatch  int `json:"notify_batch"`

	// Checkpoints / CheckpointStallMS / CheckpointWriteMS meter the
	// durability path (0 with archiving off): completed checkpoint writes,
	// the cumulative milliseconds the hot path spent cutting snapshots,
	// and the cumulative milliseconds the background writer spent encoding
	// + fsyncing them. The archive_* fields meter background compaction:
	// compacted files written, raw periods folded into them, periods aged
	// out under the disk budget, and the directory size after the
	// compactor's last pass. These are the fields the cmd/loadgen driver
	// scrapes between query rounds.
	Checkpoints             int64 `json:"checkpoints"`
	CheckpointStallMS       int64 `json:"checkpoint_stall_ms"`
	CheckpointWriteMS       int64 `json:"checkpoint_write_ms"`
	ArchiveCompactions      int64 `json:"archive_compactions"`
	ArchiveCompactedPeriods int64 `json:"archive_compacted_periods"`
	ArchiveAgedOutPeriods   int64 `json:"archive_aged_out_periods"`
	ArchiveBytes            int64 `json:"archive_bytes"`

	// The stage_* objects summarise the end-to-end stage-latency
	// histograms (count, p50/p99/max milliseconds); full bucket detail is
	// on /metrics.
	StageDocPartition     core.StageLatency `json:"stage_doc_partition"`
	StageDocCoefficient   core.StageLatency `json:"stage_doc_coefficient"`
	StageDocTrackerAccept core.StageLatency `json:"stage_doc_tracker_accept"`

	Tracker TrackerStats `json:"tracker"`
	Trends  *TrendStats  `json:"trends,omitempty"`

	EmittedByComponent  map[string]int64 `json:"emitted_by_component"`
	ReceivedByComponent map[string]int64 `json:"received_by_component"`
}

// TrendStats is the /stats rendering of the streaming detector's internal
// structure; present only when the pipeline runs with trend detection.
type TrendStats struct {
	Shards          int   `json:"shards"`
	TopKBound       int   `json:"topk_bound"`
	Tracked         int   `json:"tracked_predictors"`
	RetainedPeriods int   `json:"retained_periods"`
	HeapEntries     int   `json:"heap_entries"`
	Rebuilds        int64 `json:"heap_rebuilds"`
	PrunedPeriods   int64 `json:"pruned_periods"`
	Scored          int64 `json:"events_scored"`
	Filtered        int64 `json:"filtered"`
	OutOfOrder      int64 `json:"out_of_order"`
	Late            int64 `json:"late"`
	Published       int64 `json:"events_published"`
	Dropped         int64 `json:"subscriber_drops"`
	Subscribers     int   `json:"subscribers"`
}

// TrackerStats is the /stats rendering of the Tracker's internal structure:
// shard layout, incremental top-k heaps, retention pruning, evicted LRU.
type TrackerStats struct {
	Shards          int   `json:"shards"`
	TopKBound       int   `json:"topk_bound"`
	Retained        int   `json:"retained_coefficients"`
	RetainedPeriods int   `json:"retained_periods"`
	HeapEntries     int   `json:"heap_entries"`
	Rebuilds        int64 `json:"heap_rebuilds"`
	PrunedPeriods   int64 `json:"pruned_periods"`
	EvictedLen      int   `json:"evicted_pairs"`
	EvictedCap      int   `json:"evicted_pairs_cap"`
	EvictedHits     int64 `json:"evicted_pair_hits"`
	EvictedMisses   int64 `json:"evicted_pair_misses"`
	Late            int64 `json:"late_reports"`
}

// handleStats renders the one per-request field (the snapshot's age) and
// splices the rendered snapshot's encoding of the remainder in behind it.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cur := s.cur.Load()
	static := cur.body(bodyKey{route: "/stats"}, func() interface{} { return buildStatsStatic(cur.snap, cur.rss) })
	var buf [48]byte
	head := append(buf[:0], `{"snapshot_age_ms":`...)
	head = strconv.AppendInt(head, s.now().Sub(cur.snap.TakenAt).Milliseconds(), 10)
	head = append(head, ',')
	writeBody(w, head)
	w.Write(static[1:]) //nolint:errcheck // static's own "{" is the head's
}

func buildStatsStatic(snap *core.Snapshot, rss int64) statsStatic {
	var trends *TrendStats
	if v := snap.Trends; v != nil {
		trends = &TrendStats{
			Shards:          v.Stats.Shards,
			TopKBound:       v.Stats.TopKBound,
			Tracked:         v.Stats.Tracked,
			RetainedPeriods: v.Stats.RetainedPeriods,
			HeapEntries:     v.Stats.HeapEntries,
			Rebuilds:        v.Stats.Rebuilds,
			PrunedPeriods:   v.Stats.PrunedPeriods,
			Scored:          v.Stats.Scored,
			Filtered:        v.Stats.Filtered,
			OutOfOrder:      v.Stats.OutOfOrder,
			Late:            v.Stats.Late,
			Published:       v.Stats.Published,
			Dropped:         v.Stats.Dropped,
			Subscribers:     v.Stats.Subscribers,
		}
	}
	return statsStatic{
		RSSBytes: rss,

		DocsProcessed:     snap.DocsProcessed,
		DocsBeforeInstall: snap.DocsBeforeInstall,
		NotifiedDocs:      snap.NotifiedDocs,
		Notifications:     snap.Notifications,
		UncoveredDocs:     snap.UncoveredDocs,

		Communication: snap.Communication,
		LoadGini:      snap.LoadGini,
		PerCalculator: snap.PerCalculator,

		Epoch:              snap.Epoch,
		RepartitionPending: snap.RepartitionPending,
		Repartitions:       snap.Repartitions,
		RepartitionsComm:   snap.RepartitionsComm,
		RepartitionsLoad:   snap.RepartitionsLoad,
		RepartitionsBoth:   snap.RepartitionsBoth,
		SingleAdditions:    snap.SingleAdditions,
		Merges:             snap.Merges,

		Periods:               snap.Periods,
		CoefficientsReceived:  snap.CoefficientsReceived,
		CoefficientsDuplicate: snap.CoefficientsDuplicate,

		TrackerTasks: snap.TrackerTasks,
		NotifyBatch:  snap.NotifyBatch,

		Checkpoints:             snap.Checkpoints,
		CheckpointStallMS:       snap.CheckpointStallMS,
		CheckpointWriteMS:       snap.CheckpointWriteMS,
		ArchiveCompactions:      snap.ArchiveCompactions,
		ArchiveCompactedPeriods: snap.ArchiveCompactedPeriods,
		ArchiveAgedOutPeriods:   snap.ArchiveAgedOutPeriods,
		ArchiveBytes:            snap.ArchiveBytes,

		StageDocPartition:     snap.StageDocPartition,
		StageDocCoefficient:   snap.StageDocCoefficient,
		StageDocTrackerAccept: snap.StageDocTrackerAccept,

		Tracker: TrackerStats{
			Shards:          snap.Tracker.Shards,
			TopKBound:       snap.Tracker.TopKBound,
			Retained:        snap.Tracker.Retained,
			RetainedPeriods: snap.Tracker.RetainedPeriods,
			HeapEntries:     snap.Tracker.HeapEntries,
			Rebuilds:        snap.Tracker.Rebuilds,
			PrunedPeriods:   snap.Tracker.PrunedPeriods,
			EvictedLen:      snap.Tracker.EvictedLen,
			EvictedCap:      snap.Tracker.EvictedCap,
			EvictedHits:     snap.Tracker.EvictedHits,
			EvictedMisses:   snap.Tracker.EvictedMisses,
			Late:            snap.Tracker.Late,
		},
		Trends: trends,

		EmittedByComponent:  snap.EmittedByComponent,
		ReceivedByComponent: snap.ReceivedByComponent,
	}
}

// HealthResponse is the /healthz payload. Watchdog carries the stall
// watchdog's current verdict ("ok", or "stalled: …" naming the tripped
// checks) and UptimeMS the serving layer's age, so a probe can tell
// "just started" from "up but wedged".
type HealthResponse struct {
	Status        string `json:"status"`
	Running       bool   `json:"running"`
	DocsProcessed int64  `json:"docs_processed"`
	UptimeMS      int64  `json:"uptime_ms"`
	Watchdog      string `json:"watchdog"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Running:       s.handle.Running(),
		DocsProcessed: s.Snapshot().DocsProcessed,
		UptimeMS:      time.Since(s.started).Milliseconds(),
		Watchdog:      s.watchdog.Verdict(),
	})
}

// ReadyResponse is the /readyz payload. Unlike /healthz (liveness: the
// process is up and serving), readiness reports whether the pipeline has
// actually started consuming the stream — the condition a load driver or
// orchestrator waits on before aiming traffic at the service. Ready once
// the first document has been processed; a drained run stays ready (its
// final state is still being served).
type ReadyResponse struct {
	Ready         bool   `json:"ready"`
	Running       bool   `json:"running"`
	DocsProcessed int64  `json:"docs_processed"`
	UptimeMS      int64  `json:"uptime_ms"`
	Watchdog      string `json:"watchdog"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	// Consult the Tracker-consistent cached snapshot, but fall back to the
	// live Disseminator counters: at startup the first refresh can precede
	// the first processed document, and readiness should flip as soon as
	// traffic flows rather than one cache interval later.
	docs := s.Snapshot().DocsProcessed
	if docs == 0 {
		docs = s.pipe.Snapshot(1).DocsProcessed
	}
	resp := ReadyResponse{
		Ready:         docs > 0,
		Running:       s.handle.Running(),
		DocsProcessed: docs,
		UptimeMS:      time.Since(s.started).Milliseconds(),
		Watchdog:      s.watchdog.Verdict(),
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
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
