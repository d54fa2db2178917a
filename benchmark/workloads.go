package main

import (
	"fmt"
	"math"

	"repro/benchmark/kit"
	"repro/internal/core"
	"repro/internal/flight"
)

// workload is one traffic mix: a document stream, fed closed loop at the
// pipeline's own ceiling or open loop at a fixed rate, two open-loop query
// issuers and an alert subscriber beside it, and optionally a closed-loop
// read storm. Every workload runs the same harness and reports every
// metric (the benchmark contract asks for that); they differ in which
// layer the mix keeps busy. The work of a run is fixed: so many documents,
// so many requests.
type workload struct {
	Name string
	Why  string

	Shape kit.Shape
	// Durable turns the archive on: segments, checkpoints every two periods
	// and the compactor during the run, restores after it, and a history
	// issuer. Without it the workload bypasses the archive altogether.
	Durable bool
	// ClosedRate makes the feed a closed loop of ClosedRate × seconds
	// documents: the spout gets each document as soon as it asks, held back
	// only by the period credit (feeder.go), so the run lasts as long as
	// the pipeline needs. The value is what the seed commit sustains on the
	// reference host, which makes the run about `seconds` long there.
	ClosedRate float64
	// FeedRate makes the feed an open loop at that many documents a second
	// for `seconds`. Exactly one of ClosedRate and FeedRate is set.
	FeedRate float64
	// PreloadDocs are fed closed loop between the gate and the clock, so
	// the run starts on a warm service: full retention window, sealed
	// archive periods, primed trend predictors.
	PreloadDocs int
	// History adds the history issuer, which needs the archive. It asks for
	// the newest listed period, the segment still being appended to, which
	// the archive reader must decode again whenever it grew: each such
	// request costs a tenth of a second of a processor, too much to put
	// beside a closed loop as an observer.
	History bool
	// StormRate adds the read storm: a fixed seeded sequence of StormRate ×
	// seconds requests, issued by nproc closed-loop clients.
	StormRate float64
}

// The issuers' rates. The live issuer runs beside every workload: 50
// requests a second cost about one percent of a processor, so it observes
// the ingest workloads without loading them.
const (
	liveQPS = 50
	histQPS = 5
)

var workloads = []workload{
	{
		Name:       "ingest-durable",
		Why:        "narrow documents, closed loop at the pipeline's ceiling, durable: messaging, routing, Tracker intake and the archive write path all do real work",
		Shape:      kit.Narrow,
		Durable:    true,
		ClosedRate: 8000,
	},
	{
		Name:       "ingest-wide",
		Why:        "documents of up to 10 tags, closed loop, archive off: subset enumeration in tagset and jaccard dominates, messaging is a small share, the archive none",
		Shape:      kit.Wide,
		ClosedRate: 1700,
	},
	{
		Name:     "serve-paced",
		Why:      "the serving case at a quarter of the ceiling: alert lag and query latency under ingest, archive reads of the growing segment beside writes, recovery",
		Shape:    kit.Narrow,
		Durable:  true,
		FeedRate: 3000,
		History:  true,
	},
	{
		Name:        "read-storm",
		Why:         "a fixed sequence of reads by nproc closed-loop clients over a warm service with a trickle of ingest: handlers, snapshot caches and the archive reader are the bottleneck",
		Shape:       kit.Narrow,
		Durable:     true,
		FeedRate:    500,
		PreloadDocs: 8 * kit.PeriodLen,
		History:     true,
		StormRate:   15000,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// feedDocs is the number of documents the measured window hands over.
func (w workload) feedDocs(seconds float64) int {
	return int(math.Round((w.ClosedRate + w.FeedRate) * seconds))
}

// stormRequests is the length of the storm's request sequence.
func (w workload) stormRequests(seconds float64) int {
	return int(math.Round(w.StormRate * seconds))
}

// streamDocs is the whole stream a run of the given length consumes.
func (w workload) streamDocs(seconds float64) int {
	return kit.GateDocs + w.PreloadDocs + w.feedDocs(seconds)
}

// serviceConfig is kit.ServiceConfig with a flight recorder, durable if an
// archive directory is given.
func serviceConfig(st *kit.Stream, archiveDir string) core.Config {
	cfg := kit.ServiceConfig()
	if archiveDir != "" {
		cfg.ArchiveDir = archiveDir
		cfg.ArchiveDict = st.Dict
	} else {
		cfg.CheckpointEvery = 0
	}
	cfg.Flight = flight.NewRecorder(flight.Config{Sample: kit.FlightSample})
	return cfg
}

const (
	serverTopK    = 100
	serverRefresh = 100 // ms
)

// configEcho is the resolved configuration printed with every report.
type configEcho struct {
	K               int     `json:"k"`
	P               int     `json:"p"`
	Algorithm       string  `json:"algorithm"`
	Thr             float64 `json:"thr"`
	MaxTags         int     `json:"max_tags"`
	KeepPeriods     int     `json:"keep_periods"`
	TrackerTasks    int     `json:"tracker_tasks"`
	NotifyBatch     int     `json:"notify_batch"`
	EvictedPairs    int     `json:"evicted_pairs"`
	TrendThreshold  float64 `json:"trend_threshold"`
	TrendTopK       int     `json:"trend_topk"`
	ReportEveryMS   int64   `json:"report_every_ms"`
	Durable         bool    `json:"durable"`
	CheckpointEvery int     `json:"checkpoint_every"`
	FlightSample    int     `json:"flight_sample"`
	ServerTopK      int     `json:"server_topk"`
	ServerRefreshMS int     `json:"server_refresh_ms"`
	GateDocs        int     `json:"gate_docs"`
	PreloadDocs     int     `json:"preload_docs"`
	ClosedLoop      bool    `json:"closed_loop"`
	FeedRate        float64 `json:"feed_docs_per_s"`
	FeedDocs        int     `json:"feed_docs"`
	StormRequests   int     `json:"storm_requests"`
	LiveQPS         float64 `json:"live_qps"`
	HistQPS         float64 `json:"hist_qps"`
	StormClients    int     `json:"storm_clients"`
}

func echoConfig(w workload, cfg core.Config, seconds float64, stormClients int) configEcho {
	e := configEcho{
		K: cfg.K, P: cfg.P, Algorithm: string(cfg.Algorithm), Thr: cfg.Thr, MaxTags: cfg.MaxTags,
		KeepPeriods: cfg.KeepPeriods, TrackerTasks: cfg.TrackerTasks, NotifyBatch: cfg.NotifyBatch,
		EvictedPairs: cfg.EvictedPairs, TrendThreshold: cfg.TrendThreshold, TrendTopK: cfg.TrendTopK,
		ReportEveryMS: int64(cfg.ReportEvery), Durable: w.Durable, CheckpointEvery: cfg.CheckpointEvery,
		FlightSample: kit.FlightSample, ServerTopK: serverTopK, ServerRefreshMS: serverRefresh,
		GateDocs: kit.GateDocs, PreloadDocs: w.PreloadDocs, ClosedLoop: w.ClosedRate > 0, FeedRate: w.FeedRate, FeedDocs: w.feedDocs(seconds),
		StormRequests: w.stormRequests(seconds), LiveQPS: liveQPS, StormClients: stormClients,
	}
	if w.History {
		e.HistQPS = histQPS
	}
	return e
}
