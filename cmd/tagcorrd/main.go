// Command tagcorrd is the live tag-correlation service: it feeds a
// generated or file-backed tweet stream into the concurrent pipeline and
// serves the current correlation state over HTTP while the stream is being
// consumed. It is the long-running counterpart of cmd/tagcorr.
//
//	tagcorrd -addr :8080                 # unbounded generated stream
//	tagcorrd -in tweets.jsonl -rate 5000 # replay a file at 5000 docs/s
//
//	curl localhost:8080/topk?k=10
//	curl localhost:8080/pairs/tag-42-1/tag-42-7
//	curl localhost:8080/trends?k=10
//	curl localhost:8080/trends/tag-42-1/tag-42-7
//	curl -N localhost:8080/events
//	curl localhost:8080/partition
//	curl localhost:8080/stats
//	curl localhost:8080/metrics
//	curl localhost:8080/healthz
//	curl localhost:8080/history/periods
//	curl 'localhost:8080/history/topk?period=3&k=10'
//	curl localhost:8080/history/pairs/tag-42-1/tag-42-7
//	curl 'localhost:8080/history/trends?period=3&k=10'
//
// With -archive-dir the daemon is durable: accepted coefficient reports
// and trend deviations stream into per-period segment files, checkpoints
// are written every -checkpoint-every reporting periods, the /history
// endpoints answer for periods arbitrarily far past -keep-periods, and a
// restart (even after SIGKILL) recovers from the newest valid checkpoint
// and resumes the source from the recorded cursor, logging a recovery
// summary. With -keep-periods > 0 a background compactor additionally
// coalesces pruned per-period segments into compacted files and, with
// -archive-budget, ages out the oldest compacted history to keep the
// directory under the byte budget.
//
// Observability: GET /metrics serves the full Prometheus text exposition
// (pipeline counters, stage-latency histograms, per-route request
// latency); -debug-addr serves net/http/pprof on a separate listener;
// logs are structured log/slog records on stderr, shaped by -log-format
// (text or json) and filtered by -log-level.
//
// A flight recorder rides along: a ring of recent operational events
// (repartitions with cause, checkpoint begin/end, compaction passes,
// retention prunes, spout-throttle saturation, archive errors), sampled
// end-to-end span traces for every -trace-sample-th document plus the
// slowest documents over -trace-slow-ms per window, and a stall watchdog
// whose verdict reaches /healthz, /readyz and the tagcorr_watchdog_*
// gauges. GET /debug/events, /debug/traces and /debug/traces/{id} expose
// the recorder; SIGQUIT dumps it through the log without stopping the
// daemon; -log-requests adds per-request debug logs.
//
// On SIGINT/SIGTERM the daemon drains gracefully: a checkpoint is written
// (so even a killed drain stays recoverable), the source stops, the
// in-flight tuples flush, a final snapshot and end-of-run checkpoint are
// taken, the run summary is printed, and the HTTP server shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on the DefaultServeMux, served only via -debug-addr
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/telemetry"
	"repro/internal/twitgen"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		in      = flag.String("in", "", "JSONL input file (empty: generate synthetically)")
		alg     = flag.String("alg", "DS", "partitioning algorithm: DS, SCC, SCL, SCI, DS+split")
		k       = flag.Int("k", 10, "number of partitions / Calculators")
		p       = flag.Int("p", 10, "number of Partitioners")
		thr     = flag.Float64("thr", 0.5, "repartition threshold")
		repEv   = flag.Duration("report-every", 5*time.Minute, "Calculator reporting period, in virtual stream time")
		winSpan = flag.Duration("window-span", 5*time.Minute, "Partitioner window span, in virtual stream time")
		minutes = flag.Float64("minutes", 0, "generated stream length in virtual minutes (0: unbounded)")
		seed    = flag.Int64("seed", 1, "generator seed")
		rate    = flag.Float64("rate", 0, "documents per wall-clock second (0: full speed)")
		topk    = flag.Int("topk", 100, "coefficients kept in the snapshot cache")
		refresh = flag.Duration("refresh", 250*time.Millisecond, "snapshot cache refresh interval")
		periods = flag.Int("keep-periods", 12, "reporting periods retained in memory (0: keep all)")
		shards  = flag.Int("tracker-shards", 0, "Tracker lock shards (0: default 16)")
		evicted = flag.Int("evicted-pairs", 4096, "LRU capacity for coefficients pruned by -keep-periods (0: off)")
		pending = flag.Int("spout-pending", 0, "spout throttle: max tuples in flight (0: default 4096)")
		trTasks = flag.Int("tracker-tasks", 4, "Tracker task parallelism, fields-grouped on the route word of the tagset's fold (0: 1 task)")
		nBatch  = flag.Int("notify-batch", 64, "documents per Disseminator→Calculator notification batch (0: per-document tuples)")

		trendOn    = flag.Bool("trend", true, "enable the streaming trend detector (/trends, /events)")
		trendAlpha = flag.Float64("trend-alpha", 0.4, "trend predictor smoothing factor")
		trendTopK  = flag.Int("trend-topk", 50, "maintained top-trends heap bound per period")
		trendMinCN = flag.Int64("trend-min-support", 5, "minimum intersection counter for trend scoring")
		trendThr   = flag.Float64("trend-threshold", 0.1, "minimum score pushed on the /events feed")

		archiveDir = flag.String("archive-dir", "", "durability directory: per-period segments + checkpoints; serves /history and enables crash recovery (empty: off)")
		ckptEvery  = flag.Int("checkpoint-every", 1, "write a checkpoint every N reporting periods (with -archive-dir)")
		archBudget = flag.Int64("archive-budget", 0, "archive disk budget in bytes: pruned periods are compacted and, past the budget, the oldest compacted history is aged out (0: keep everything; with -archive-dir and -keep-periods > 0)")

		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty: off)")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")

		traceSample  = flag.Int("trace-sample", 256, "flight recorder: trace every Nth document end to end (0: tracing off)")
		traceSlowMS  = flag.Int64("trace-slow-ms", 250, "flight recorder: also retain the slowest documents over this latency, per window")
		flightEvents = flag.Int("flight-events", 1024, "flight recorder: operational event ring capacity (rounded up to a power of two)")
		logRequests  = flag.Bool("log-requests", false, "log every HTTP request (route, status, latency) at debug level")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tagcorrd: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	// The query server builds its own mux, so the DefaultServeMux carries
	// nothing but the pprof handlers net/http/pprof registered — serving it
	// on a separate listener keeps profiling off the public query address.
	if *debugAddr != "" {
		go func() {
			slog.Info("pprof debug server listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				slog.Error("debug server failed", "err", err)
			}
		}()
	}

	cfg := core.DefaultConfig()
	cfg.Algorithm = partition.Algorithm(*alg)
	cfg.K = *k
	cfg.P = *p
	cfg.Thr = *thr
	cfg.ReportEvery = stream.Millis(repEv.Milliseconds())
	cfg.WindowSpan = stream.Millis(winSpan.Milliseconds())
	// A daemon runs indefinitely: bound the Tracker's memory and skip the
	// batch-oriented figure time series. The evicted-pair LRU keeps point
	// lookups answerable across the retention window.
	cfg.KeepPeriods = *periods
	cfg.NoSeries = true
	cfg.TrackerShards = *shards
	cfg.EvictedPairs = *evicted
	if *periods == 0 && *evicted > 0 {
		// Unbounded retention never prunes, so there is nothing for the
		// evicted-pair LRU to catch; drop it rather than failing validation
		// on the flag default.
		slog.Warn("-keep-periods 0 retains everything; disabling evicted-pair LRU", "evicted_pairs", *evicted)
		cfg.EvictedPairs = 0
	}
	cfg.SpoutPending = *pending
	// Hot-path fan-out: several Tracker tasks share the one sharded
	// Tracker, and Disseminator→Calculator traffic ships in batches.
	cfg.TrackerTasks = *trTasks
	cfg.NotifyBatch = *nBatch
	cfg.Trend = *trendOn
	cfg.TrendAlpha = *trendAlpha
	cfg.TrendTopK = *trendTopK
	cfg.TrendMinSupport = *trendMinCN
	cfg.TrendThreshold = *trendThr

	// The flight recorder is always built: the event ring and watchdog
	// cost almost nothing at steady state, and sampled tracing touches one
	// document in -trace-sample. -trace-sample 0 turns tracing off while
	// keeping the operational event ring.
	frec := flight.NewRecorder(flight.Config{
		Sample: *traceSample,
		SlowMS: *traceSlowMS,
		Events: *flightEvents,
	})
	cfg.Flight = frec

	// Crash recovery: with -archive-dir, load the newest valid checkpoint
	// (CRC-verified; a torn newest file falls back to its predecessor),
	// rebuild the tag dictionary so the stream interns to the same ids,
	// and resume the source from the recorded cursor. The replayed suffix
	// rebuilds the period that was in flight when the checkpoint was cut.
	var rec *core.Recovered
	dict := tagset.NewDictionary()
	if *archiveDir != "" {
		var err error
		if rec, err = core.Restore(*archiveDir); err != nil {
			fatal("restore failed", "dir", *archiveDir, "err", err)
		}
		if rec != nil {
			dict = rec.Dictionary()
			periods := rec.Periods()
			slog.Info("recovered from checkpoint", "dir", *archiveDir,
				"periods", len(periods), "period_ids", periods,
				"epoch", rec.Epoch(), "resume_doc", rec.SkipDocs())
		} else {
			slog.Info("no checkpoint found; starting fresh", "dir", *archiveDir)
		}
		cfg.ArchiveDir = *archiveDir
		cfg.ArchiveDict = dict
		cfg.CheckpointEvery = *ckptEvery
		cfg.ArchiveBudgetBytes = *archBudget
		if *periods == 0 && *archBudget > 0 {
			// Without retention no period is ever sealed, so nothing could
			// be compacted or aged out; drop the budget rather than failing
			// validation on a flag combination.
			slog.Warn("-keep-periods 0 retains everything; disabling archive budget", "archive_budget", *archBudget)
			cfg.ArchiveBudgetBytes = 0
		}
	} else if *archBudget > 0 {
		slog.Warn("-archive-budget without -archive-dir; ignoring", "archive_budget", *archBudget)
	}

	src, srcErr, err := buildSource(*in, *minutes, *seed, dict)
	if err != nil {
		fatal("building document source failed", "err", err)
	}
	if rec != nil {
		src = rec.FastForward(src)
	}
	if *rate > 0 {
		src = paced(src, *rate)
	}
	src, stop := core.StopSource(src)

	pipe, err := core.NewPipeline(cfg, src)
	if err != nil {
		fatal("pipeline construction failed", "err", err)
	}
	if err := pipe.Adopt(rec); err != nil {
		fatal("adopting recovered state failed", "err", err)
	}
	h := pipe.Start()
	scfg := server.Config{
		TopK:        *topk,
		Refresh:     *refresh,
		Flight:      frec,
		LogRequests: *logRequests,
		Logger:      logger,
	}
	if *archiveDir != "" {
		scfg.History = archive.OpenReader(*archiveDir)
	}
	srv := server.New(pipe, h, dict, scfg)

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	go func() {
		slog.Info("serving", "addr", *addr,
			"algorithm", string(cfg.Algorithm), "k", cfg.K, "p", cfg.P, "thr", cfg.Thr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("http server failed", "err", err)
		}
	}()

	// SIGQUIT dumps the flight recorder — watchdog verdict, counters, the
	// operational event ring, retained trace summaries — through slog and
	// keeps the daemon running. Catching the signal replaces the runtime's
	// default goroutine-dump-and-exit; use the pprof listener for stacks.
	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	go func() {
		for range sigq {
			dumpFlight(frec, srv)
		}
	}()

	// A finite stream (file input or -minutes) may drain on its own; the
	// daemon keeps serving the final state until a signal arrives.
	go func() {
		h.Wait()
		slog.Info("stream drained; serving final state until shutdown")
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	slog.Info("shutting down, draining stream")

	// Write a checkpoint before draining: if the drain itself is killed,
	// the next start still recovers to this moment. The drain's own
	// end-of-run checkpoint (written inside Wait) then supersedes it.
	if *archiveDir != "" && h.Running() {
		if err := pipe.Checkpoint(); err != nil {
			slog.Error("pre-drain checkpoint failed", "err", err)
		}
	}
	stop()
	res := h.Wait()
	srv.Close() // final snapshot: the cache now holds the end-of-run state
	if err := pipe.ArchiveErr(); err != nil {
		slog.Error("archive checkpoint error during run", "err", err)
	}

	fmt.Printf("# docs=%d (bootstrap %d) communication=%.3f loadGini=%.3f\n",
		res.DocsProcessed, res.DocsBeforeInstall, res.Communication, res.LoadGini)
	fmt.Printf("# repartitions=%d (comm=%d load=%d both=%d) singleAdditions=%d periods=%d\n",
		res.Repartitions, res.RepartitionsComm, res.RepartitionsLoad, res.RepartitionsBoth,
		res.SingleAdditions, len(res.Tracker.Periods()))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		slog.Error("http shutdown failed", "err", err)
	}
	// A replay truncated by a malformed input line served only a prefix of
	// the capture; exit non-zero so scripted replays cannot mistake it for
	// a complete run.
	if err := srcErr(); err != nil {
		fatal("input stream truncated", "err", err)
	}
}

// dumpFlight logs the flight recorder's full state: the watchdog verdict,
// the trace counters, every event still in the ring and the retained trace
// summaries. Invoked on SIGQUIT; the daemon keeps running afterwards.
func dumpFlight(rec *flight.Recorder, srv *server.Server) {
	st := rec.Snapshot()
	slog.Info("flight recorder dump",
		"verdict", srv.Watchdog().Verdict(),
		"docs_seen", st.DocsSeen, "traces_started", st.TracesStarted,
		"retained_sample", st.KeptSample, "retained_slow", st.KeptSlow,
		"discarded", st.Discarded, "active", st.Active, "retained", st.Retained,
		"events", st.EventsRecorded)
	for _, e := range rec.Events() {
		slog.Info("flight event", "seq", e.Seq, "kind", e.Kind,
			"at", telemetry.Wall(e.At).Format(time.RFC3339Nano), "msg", e.Msg)
	}
	for _, t := range rec.Traces(32) {
		slog.Info("flight trace", "id", t.ID, "sampled", t.Sampled,
			"retained", t.Retained, "complete", t.Complete,
			"spans", t.Spans, "duration_us", t.DurationUS)
	}
}

// newLogger builds the daemon's slog logger from the -log-format and
// -log-level flags. Logs go to stderr; stdout stays reserved for the
// end-of-run summary lines.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q (want text or json)", format)
	}
}

// fatal logs at error level and exits non-zero — the slog counterpart of
// log.Fatalf.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// buildSource returns the document stream — a JSONL file replayed lazily
// line by line (replay memory stays O(1) in the capture size), or the
// synthetic generator (optionally capped at the given virtual length) —
// plus a srcErr to consult after the run: a scan or parse failure ends the
// lazy replay early, and the daemon must not report such a truncated run
// as success.
func buildSource(in string, minutes float64, seed int64, dict *tagset.Dictionary) (core.DocumentSource, func() error, error) {
	noErr := func() error { return nil }
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, nil, err
		}
		jsonl := stream.NewJSONLSource(f, dict)
		var closeOnce sync.Once
		src := func() (stream.Document, bool) {
			d, ok := jsonl.Next()
			if !ok {
				closeOnce.Do(func() {
					if err := jsonl.Err(); err != nil {
						slog.Error("input stream ends early", "file", in, "err", err)
					}
					f.Close()
				})
			}
			return d, ok
		}
		return src, jsonl.Err, nil
	}

	gcfg := twitgen.Default()
	gcfg.Seed = seed
	gen, err := twitgen.New(gcfg, dict)
	if err != nil {
		return nil, nil, err
	}
	if minutes <= 0 {
		return func() (stream.Document, bool) { return gen.Next(), true }, noErr, nil
	}
	limit := stream.Minutes(minutes)
	return func() (stream.Document, bool) {
		d := gen.Next()
		if d.Time >= limit {
			return stream.Document{}, false
		}
		return d, true
	}, noErr, nil
}

// paced limits src to the given documents per wall-clock second. The sleep
// is batched so coarse OS timer granularity cannot throttle far below the
// requested rate.
func paced(src core.DocumentSource, perSecond float64) core.DocumentSource {
	var (
		start time.Time
		n     int64
	)
	return func() (stream.Document, bool) {
		if start.IsZero() {
			start = time.Now()
		}
		n++
		due := start.Add(time.Duration(float64(n) / perSecond * float64(time.Second)))
		if ahead := time.Until(due); ahead > 10*time.Millisecond {
			time.Sleep(ahead)
		}
		return src()
	}
}
