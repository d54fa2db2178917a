package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"repro/benchmark/kit"
	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/server"
	"repro/internal/stream"
)

// routeReps is how many times each route is served; its metric is the
// median service time.
const routeReps = 200

// decodeReps is the same for the one route that decodes a whole segment per
// request (hundreds of milliseconds on the wide stream).
const decodeReps = 9

// gatedSource hands over the first gate documents, waits for release, and
// hands over the rest: without the wait an unpaced replay drains before the
// first partitioning installs and no document reaches a Calculator (the
// harness's install gate, ../harness.go).
func gatedSource(docs []stream.Document, gate int, release <-chan struct{}) core.DocumentSource {
	i := 0
	return func() (stream.Document, bool) {
		if i == gate {
			<-release
		}
		if i >= len(docs) {
			return stream.Document{}, false
		}
		d := docs[i]
		i++
		return d, true
	}
}

// serverLayer runs the replay's stream through a real durable pipeline,
// then times every read route in process against the drained service:
// handler, snapshot access and JSON encoding, with no ingest beside.
func (r *replay) serverLayer(parent int64) error {
	dir, err := tempDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := r.cfg
	cfg.ArchiveDir = dir
	cfg.ArchiveDict = r.st.Dict
	cfg.Flight = flight.NewRecorder(flight.Config{Sample: kit.FlightSample})

	release := make(chan struct{})
	// The gate prefix and one more period: enough for a full period to be
	// counted, reported and archived after the partitioning installed.
	docs := r.st.Docs[:min(kit.GateDocs+kit.PeriodLen, len(r.st.Docs))]
	const gate = kit.PeriodLen + 1 // the document that asks for the first partitioning
	pipe, err := core.NewPipeline(cfg, gatedSource(docs, gate, release))
	if err != nil {
		close(release)
		return err
	}
	h := pipe.Start()
	deadline := time.Now().Add(time.Minute)
	for {
		s := pipe.Snapshot(1)
		if s.Epoch >= 1 && s.DocsProcessed == gate {
			break
		}
		if time.Now().After(deadline) {
			close(release)
			h.Wait()
			return fmt.Errorf("the first partitioning did not install within a minute")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	h.Wait()
	srv := server.New(pipe, h, r.st.Dict, server.Config{
		TopK:    100,
		Refresh: 100 * time.Millisecond,
		History: archive.OpenReader(dir),
		Flight:  cfg.Flight,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer srv.Close()
	client := kit.NewClient(srv.Handler())

	// A pair and the listed periods, as a client would learn them.
	_, body := client.Get("/topk?k=100")
	var top struct {
		Top []struct {
			Tags []string `json:"tags"`
		} `json:"top"`
	}
	if err := json.Unmarshal(body, &top); err != nil {
		return fmt.Errorf("/topk: %w", err)
	}
	pair := ""
	for _, c := range top.Top {
		if len(c.Tags) == 2 {
			pair = url.PathEscape(c.Tags[0]) + "/" + url.PathEscape(c.Tags[1])
			break
		}
	}
	if pair == "" {
		return fmt.Errorf("/topk lists no pair (%d entries)", len(top.Top))
	}
	_, body = client.Get("/history/periods")
	var listed struct {
		Periods []int64 `json:"periods"`
	}
	if err := json.Unmarshal(body, &listed); err != nil || len(listed.Periods) < 2 {
		return fmt.Errorf("/history/periods lists %v: %v", listed.Periods, err)
	}
	sealed, newest := listed.Periods[0], listed.Periods[len(listed.Periods)-1]

	// serve times one route n times under the span name server<pattern>;
	// before runs untimed ahead of each request.
	serve := func(pattern, path string, n int, before func()) (p50us float64, size int, err error) {
		us := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			if before != nil {
				before()
			}
			var status int
			ns, _ := r.timed("server"+pattern, parent, func() { status, body = client.Get(path) })
			if status != http.StatusOK {
				return 0, 0, fmt.Errorf("%s answered %d", path, status)
			}
			us = append(us, ns/1e3)
		}
		return kit.Median(us), len(body), nil
	}
	for _, rt := range []struct {
		metric, pattern, path string
	}{
		{"server.topk20_us_p50", "/topk?k=20", "/topk?k=20"},
		{"server.topk100_us_p50", "/topk?k=100", "/topk?k=100"},
		{"server.trends_us_p50", "/trends", "/trends?k=20"},
		{"server.pairs_us_p50", "/pairs/{a}/{b}", "/pairs/" + pair},
		{"server.trendlookup_us_p50", "/trends/{a}/{b}", "/trends/" + pair},
		{"server.stats_us_p50", "/stats", "/stats"},
		{"server.partition_us_p50", "/partition", "/partition"},
		{"server.hist_topk_sealed_us_p50", "/history/topk(sealed)", fmt.Sprintf("/history/topk?period=%d&k=20", sealed)},
		{"server.hist_pairs_us_p50", "/history/pairs/{a}/{b}", "/history/pairs/" + pair},
		{"server.metrics_ms_p50", "/metrics", "/metrics"},
	} {
		p50, size, err := serve(rt.pattern, rt.path, routeReps, nil)
		if err != nil {
			return err
		}
		if rt.metric == "server.metrics_ms_p50" {
			p50 /= 1e3
		}
		r.set(rt.metric, p50, routeReps)
		switch rt.metric {
		case "server.topk100_us_p50":
			r.set("server.topk100_bytes", float64(size), 1)
		case "server.partition_us_p50":
			r.set("server.partition_bytes", float64(size), 1)
		}
	}

	// The newest period as the live service sees it: its segment file has
	// changed since the reader decoded it, so the request decodes it again.
	// Moving the file's modification time is that change.
	seg := filepath.Join(dir, fmt.Sprintf("period-%d.seg", newest))
	if _, err := os.Stat(seg); err != nil {
		return fmt.Errorf("newest period's segment: %w", err)
	}
	stamp := time.Now()
	p50, _, err := serve("/history/topk(live)", fmt.Sprintf("/history/topk?period=%d&k=20", newest), decodeReps, func() {
		stamp = stamp.Add(time.Second)
		os.Chtimes(seg, stamp, stamp) //nolint:errcheck // a failure shows as a cache-hit time
	})
	if err != nil {
		return err
	}
	r.set("server.hist_topk_live_ms_p50", p50/1e3, decodeReps)

	_, allocs := r.timed("server/topk?k=20(allocs)", parent, func() {
		for i := 0; i < routeReps; i++ {
			client.Get("/topk?k=20")
		}
	})
	r.set("server.topk_allocs_per_req", per(allocs, routeReps), routeReps)
	return nil
}
