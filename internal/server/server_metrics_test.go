package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/telemetry"
	"repro/internal/twitgen"
)

// labelSets returns the distinct label sets (ignoring le) carried by a
// family's samples, so each histogram series can be checked separately.
func labelSets(f *telemetry.Family) []map[string]string {
	seen := map[string]map[string]string{}
	for _, s := range f.Samples {
		ls := map[string]string{}
		var keys []string
		for k, v := range s.Labels {
			if k == "le" {
				continue
			}
			ls[k] = v
			keys = append(keys, k+"="+v)
		}
		sort.Strings(keys)
		seen[strings.Join(keys, ",")] = ls
	}
	out := make([]map[string]string, 0, len(seen))
	for _, ls := range seen {
		out = append(out, ls)
	}
	return out
}

// scrape fetches /metrics and parses it back, failing on transport errors,
// a wrong content type, or unparseable exposition.
func scrape(t *testing.T, client *http.Client, base string) map[string]*telemetry.Family {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("GET /metrics: content type %q, want %q", ct, telemetry.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("parse /metrics exposition: %v\n%s", err, body)
	}
	return fams
}

// TestMetricsEndpoint is the acceptance test for the scrape surface: it
// runs a live pipeline until coefficients have flowed end to end, then
// asserts that /metrics serves valid exposition with at least 25 metric
// families, that every histogram upholds the bucket invariants, and that
// the three stage-latency histograms saw real traffic.
func TestMetricsEndpoint(t *testing.T) {
	dict := tagset.NewDictionary()
	gcfg := twitgen.Default()
	gcfg.Seed = 21
	gen, err := twitgen.New(gcfg, dict)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.WindowSpan = stream.Minutes(1)
	cfg.ReportEvery = stream.Minutes(1)
	src, stop := core.StopSource(func() (stream.Document, bool) {
		return gen.Next(), true
	})
	pipe, err := core.NewPipeline(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	h := pipe.Start()
	srv := New(pipe, h, dict, Config{TopK: 20, Refresh: 5 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	// Run until the Tracker accepted at least one flush, so every stage
	// histogram has samples.
	deadline := time.After(120 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("no coefficients within 120s")
		default:
		}
		var tk TopKResponse
		getJSON(t, ts.Client(), ts.URL+"/topk?k=5", &tk)
		if len(tk.Top) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	h.Wait()

	fams := scrape(t, ts.Client(), ts.URL)
	if len(fams) < 25 {
		names := make([]string, 0, len(fams))
		for n := range fams {
			names = append(names, n)
		}
		t.Fatalf("/metrics serves %d families, want >= 25: %v", len(fams), names)
	}
	for name, f := range fams {
		if !strings.HasPrefix(name, "tagcorr_") {
			t.Errorf("family %q outside the tagcorr_ namespace", name)
		}
		if f.Help == "" {
			t.Errorf("family %q has no HELP", name)
		}
		if f.Type != "histogram" {
			continue
		}
		for _, ls := range labelSets(f) {
			d, ok := f.Histogram(ls)
			if !ok {
				continue
			}
			for i := 1; i < len(d.Cum); i++ {
				if d.Cum[i] < d.Cum[i-1] {
					t.Errorf("%s%v: cumulative bucket counts decrease at le=%g", name, ls, d.Les[i])
				}
			}
		}
	}

	// The end-to-end stage histograms must have observed real documents.
	for _, stage := range []string{"doc_partition", "doc_coefficient", "doc_tracker_accept"} {
		name := "tagcorr_stage_" + stage + "_seconds"
		f, ok := fams[name]
		if !ok {
			t.Fatalf("stage family %s missing from /metrics", name)
		}
		d, ok := f.Histogram(map[string]string{"stage": stage})
		if !ok || d.Count == 0 {
			t.Errorf("%s: _count = 0, want > 0", name)
		}
	}

	// Core families from every subsystem are present.
	for _, name := range []string{
		"tagcorr_storm_tuples_emitted_total",
		"tagcorr_dissem_docs_total",
		"tagcorr_tracker_coefficients_received_total",
		"tagcorr_archive_checkpoints_total",
		"tagcorr_http_request_seconds",
		"tagcorr_http_requests_total",
		"tagcorr_process_uptime_seconds",
	} {
		if _, ok := fams[name]; !ok {
			t.Errorf("core family %s missing from /metrics", name)
		}
	}

	// The middleware recorded the /topk polls above.
	f := fams["tagcorr_http_requests_total"]
	var topkHits float64
	for _, smp := range f.Samples {
		if smp.Labels["route"] == "/topk" && smp.Labels["class"] == "2xx" {
			topkHits = smp.Value
		}
	}
	if topkHits == 0 {
		t.Error("tagcorr_http_requests_total{route=\"/topk\",class=\"2xx\"} = 0 after polling /topk")
	}
}

// TestMetricsScrapeDuringSaturatedRun scrapes /metrics concurrently with a
// saturated ingest stream (run under -race in CI): scrapes must parse and
// never wedge the pipeline.
func TestMetricsScrapeDuringSaturatedRun(t *testing.T) {
	dict := tagset.NewDictionary()
	gcfg := twitgen.Default()
	gcfg.Seed = 22
	gen, err := twitgen.New(gcfg, dict)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.WindowSpan = stream.Minutes(1)
	cfg.ReportEvery = stream.Minutes(1)
	src, stop := core.StopSource(func() (stream.Document, bool) {
		return gen.Next(), true
	})
	pipe, err := core.NewPipeline(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	h := pipe.Start()
	srv := New(pipe, h, dict, Config{TopK: 20, Refresh: 5 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	until := time.Now().Add(2 * time.Second)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				resp, err := ts.Client().Get(ts.URL + "/metrics")
				if err != nil {
					errc <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if _, err := telemetry.ParseText(strings.NewReader(string(body))); err != nil {
					errc <- fmt.Errorf("mid-run scrape unparseable: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Ingest must still advance after the scrapes: poll the counter under
	// a generous deadline rather than judge one fixed sleep.
	before := pipe.Snapshot(1).DocsProcessed
	after := before
	for deadline := time.Now().Add(10 * time.Second); after <= before && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		after = pipe.Snapshot(1).DocsProcessed
	}
	if after <= before {
		t.Errorf("ingest stalled during scrapes: %d docs, and still %d after 10 s", before, after)
	}
	stop()
	h.Wait()
}
