package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/twitgen"
)

// getJSON fetches url and decodes the JSON body into out, failing the test
// on transport, status or decoding errors.
func getJSON(t *testing.T, client *http.Client, url string, out interface{}) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestLiveQueryService is the end-to-end test of the tagcorrd serving
// path: it starts the concurrent pipeline on a small generated stream,
// polls /topk while the stream is still being consumed, and checks that
// the mid-run snapshots are monotone in documents processed, that at
// least one of them is non-empty, and that the final snapshot agrees with
// the batch Result.
func TestLiveQueryService(t *testing.T) {
	dict := tagset.NewDictionary()
	gcfg := twitgen.Default()
	gcfg.Seed = 7
	gen, err := twitgen.New(gcfg, dict)
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.WindowSpan = stream.Minutes(1)
	cfg.ReportEvery = stream.Minutes(1)
	cfg.StatsEvery = 500

	// The stream is unbounded, exactly as in the daemon: the generator
	// produces documents until the test stops the source. This makes the
	// mid-run assertions immune to scheduling — the run cannot end before
	// the poll loop has seen what it needs.
	src, stop := core.StopSource(func() (stream.Document, bool) {
		return gen.Next(), true
	})

	pipe, err := core.NewPipeline(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	h := pipe.Start()
	srv := New(pipe, h, dict, Config{TopK: 50, Refresh: 5 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Phase 1: poll /topk until a mid-run snapshot shows both progress and
	// coefficients; the source keeps producing until then.
	var lastDocs int64
	deadline := time.After(120 * time.Second)
	for observed := false; !observed; {
		select {
		case <-deadline:
			t.Fatal("no non-empty mid-run snapshot within 120s")
		default:
		}
		var tk TopKResponse
		getJSON(t, ts.Client(), ts.URL+"/topk?k=10", &tk)
		if !h.Running() {
			t.Fatal("pipeline drained with the source still producing")
		}
		if tk.DocsProcessed < lastDocs {
			t.Fatalf("docs_processed went backwards: %d after %d", tk.DocsProcessed, lastDocs)
		}
		lastDocs = tk.DocsProcessed
		observed = tk.DocsProcessed > 0 && len(tk.Top) > 0
		if !observed {
			time.Sleep(5 * time.Millisecond)
		}
	}
	stop() // graceful drain: end the stream, let in-flight tuples flush

	// Phase 2: keep polling for monotonicity while the stream drains.
	for h.Running() {
		var tk TopKResponse
		getJSON(t, ts.Client(), ts.URL+"/topk?k=10", &tk)
		if tk.DocsProcessed < lastDocs {
			t.Fatalf("docs_processed went backwards: %d after %d", tk.DocsProcessed, lastDocs)
		}
		lastDocs = tk.DocsProcessed
		time.Sleep(5 * time.Millisecond)
	}

	res := h.Wait()
	srv.Close() // final refresh; cache now reflects the drained run

	// The final snapshot must agree with the batch Result.
	var final TopKResponse
	getJSON(t, ts.Client(), ts.URL+"/topk?k=50", &final)
	if final.DocsProcessed < lastDocs {
		t.Fatalf("final docs_processed %d below last mid-run value %d", final.DocsProcessed, lastDocs)
	}
	if final.DocsProcessed != res.DocsProcessed {
		t.Errorf("final snapshot docs = %d, Result docs = %d", final.DocsProcessed, res.DocsProcessed)
	}
	// Result.Coefficients() is the Tracker's full deduplicated report, so
	// the Tracker's own TopK over the drained run is the expected answer.
	want := res.Tracker.TopK(50)
	if len(final.Top) != len(want) {
		t.Fatalf("final top-k has %d entries, Result gives %d", len(final.Top), len(want))
	}
	for i, c := range want {
		got := final.Top[i]
		if got.J != c.J || got.CN != c.CN || fmt.Sprint(got.Tags) != fmt.Sprint(dict.Strings(c.Tags)) {
			t.Errorf("final top[%d] = %+v, want J=%g CN=%d %v", i, got, c.J, c.CN, dict.Strings(c.Tags))
		}
	}

	// /healthz reflects the drained run.
	var health HealthResponse
	getJSON(t, ts.Client(), ts.URL+"/healthz", &health)
	if health.Status != "ok" || health.Running {
		t.Errorf("healthz after drain = %+v, want status ok and not running", health)
	}

	// /stats matches the Result's totals.
	var stats StatsResponse
	getJSON(t, ts.Client(), ts.URL+"/stats", &stats)
	if stats.DocsProcessed != res.DocsProcessed {
		t.Errorf("stats docs = %d, want %d", stats.DocsProcessed, res.DocsProcessed)
	}
	if stats.Repartitions != res.Repartitions {
		t.Errorf("stats repartitions = %d, want %d", stats.Repartitions, res.Repartitions)
	}
	if stats.Communication != res.Communication {
		t.Errorf("stats communication = %g, want %g", stats.Communication, res.Communication)
	}

	// /partition shows the installed assignment.
	var parts PartitionResponse
	getJSON(t, ts.Client(), ts.URL+"/partition", &parts)
	if parts.Merges < 1 || len(parts.Partitions) == 0 {
		t.Errorf("partition response shows no installed partitions: %+v", parts)
	}

	// /pairs answers for a pair from the final report.
	for _, c := range want {
		if c.Tags.Len() != 2 {
			continue
		}
		names := dict.Strings(c.Tags)
		var pair PairResponse
		getJSON(t, ts.Client(), ts.URL+"/pairs/"+names[0]+"/"+names[1], &pair)
		if pair.CN < 1 {
			t.Errorf("pair %v: CN = %d, want >= 1", names, pair.CN)
		}
		break
	}

	// Unknown tags 404.
	resp, err := ts.Client().Get(ts.URL + "/pairs/no-such-tag/also-missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown pair: status %d, want 404", resp.StatusCode)
	}
}
