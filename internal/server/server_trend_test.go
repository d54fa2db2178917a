package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/twitgen"
)

// TestTrendLiveService is the end-to-end test of the trend surface: a
// topic-drifting twitgen stream feeds the concurrent pipeline with the
// streaming detector enabled, and the test subscribes to /events while the
// executor is still consuming the stream. It proves that an emergent pair
// — a scored deviation pushed by the detector — appears on the SSE feed
// mid-run, that /trends serves the ranked view, and that the pair's
// predictor answers on the point-lookup endpoint; then the source is
// stopped and the drained run's feed ends with the `end` event.
func TestTrendLiveService(t *testing.T) {
	dict := tagset.NewDictionary()
	gcfg := twitgen.Default()
	gcfg.Seed = 11
	gcfg.DriftInterval = stream.Minutes(2) // brisk churn: deviations fire early
	gen, err := twitgen.New(gcfg, dict)
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.WindowSpan = stream.Minutes(1)
	cfg.ReportEvery = stream.Minutes(1)
	cfg.StatsEvery = 500
	cfg.Trend = true
	cfg.TrendMinSupport = 2
	cfg.TrendThreshold = 0.01 // publish essentially every scored deviation

	// Unbounded, exactly as in the daemon: the generator produces until the
	// test stops the source, so the mid-run assertions are immune to
	// scheduling.
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

	// Subscribe to the event feed before any scoring can happen.
	resp, err := ts.Client().Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("/events content type = %q", got)
	}

	type sseEvent struct {
		Tags      []string `json:"tags"`
		Period    int64    `json:"period"`
		Predicted float64  `json:"predicted"`
		Observed  float64  `json:"observed"`
		Score     float64  `json:"score"`
		CN        int64    `json:"cn"`
	}
	// readEvent scans SSE frames until the next full trend/end event.
	sc := bufio.NewScanner(resp.Body)
	readEvent := func() (name string, ev sseEvent, ok bool) {
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				name = line[len("event: "):]
				continue
			}
			if strings.HasPrefix(line, "data: ") && name != "" {
				if name == "trend" {
					if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
						t.Errorf("bad SSE payload %q: %v", line, err)
						return "", sseEvent{}, false
					}
				}
				return name, ev, true
			}
		}
		return "", sseEvent{}, false
	}

	// Phase 1: an emergent pair must arrive on the feed while the source is
	// still producing. The scanner blocks on the live HTTP stream, so a
	// watchdog stops the source (ending the feed) if nothing arrives.
	watchdog := time.AfterFunc(120*time.Second, stop)
	var first sseEvent
	for {
		name, ev, ok := readEvent()
		if !ok || name == "end" {
			t.Fatal("event feed ended before a trend event arrived")
		}
		if name != "trend" || len(ev.Tags) < 2 {
			continue
		}
		first = ev
		break
	}
	if !watchdog.Stop() {
		t.Fatal("trend event arrived only after the watchdog stopped the source")
	}
	if !h.Running() {
		t.Fatal("pipeline drained with the source still producing")
	}
	if first.Score < 0.01 || first.CN < 2 || first.Period < 2 {
		t.Errorf("implausible first event %+v", first)
	}

	// The pair's predictor answers on the point lookup, mid-run.
	var lookup TrendLookupResponse
	getJSON(t, ts.Client(), ts.URL+"/trends/"+strings.Join(first.Tags, "/"), &lookup)
	if lookup.Seen < 2 || lookup.LastPeriod < first.Period {
		t.Errorf("predictor lookup = %+v for event %+v", lookup, first)
	}

	// /trends converges to a non-empty ranked view while still running.
	deadline := time.After(120 * time.Second)
	var trends TrendsResponse
	for len(trends.Top) == 0 {
		select {
		case <-deadline:
			t.Fatal("/trends stayed empty")
		default:
		}
		getJSON(t, ts.Client(), ts.URL+"/trends?k=10", &trends)
		if len(trends.Top) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	for i := 1; i < len(trends.Top); i++ {
		if trends.Top[i].Score > trends.Top[i-1].Score {
			t.Errorf("/trends not ranked: %+v", trends.Top)
		}
	}
	if trends.LatestPeriod < 2 || trends.Scored < 1 {
		t.Errorf("trends response = %+v", trends)
	}

	// Unknown tags and too-few tags are client errors.
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/trends/no-such-tag/also-missing", http.StatusNotFound},
		{"/trends/" + first.Tags[0] + "/" + first.Tags[0], http.StatusBadRequest},
	} {
		r, err := ts.Client().Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.path, r.StatusCode, tc.want)
		}
	}

	// Phase 2: graceful drain ends the feed with the `end` event.
	stop()
	sawEnd := false
	for {
		name, _, ok := readEvent()
		if !ok {
			break
		}
		if name == "end" {
			sawEnd = true
			break
		}
	}
	if !sawEnd {
		t.Error("feed did not end with the end event after drain")
	}
	h.Wait()
	srv.Close()

	// The final /stats exposes the detector's structure.
	var stats StatsResponse
	getJSON(t, ts.Client(), ts.URL+"/stats", &stats)
	if stats.TrendStats == nil {
		t.Fatal("/stats has no trends section with the detector enabled")
	}
	if stats.TrendStats.Scored < 1 || stats.TrendStats.Tracked < 1 {
		t.Errorf("final trend stats = %+v", stats.TrendStats)
	}
}

// TestTrendEndpointsDisabled pins the 404 contract when the pipeline runs
// without the trend subsystem.
func TestTrendEndpointsDisabled(t *testing.T) {
	dict := tagset.NewDictionary()
	gcfg := twitgen.Default()
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
	defer func() { stop(); h.Wait() }()
	srv := New(pipe, h, dict, Config{TopK: 10, Refresh: time.Hour})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/trends", "/trends/a/b", "/events"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without trend: status %d, want 404", path, resp.StatusCode)
		}
	}
	// /stats omits the trends section.
	var stats StatsResponse
	getJSON(t, ts.Client(), ts.URL+"/stats", &stats)
	if stats.TrendStats != nil {
		t.Errorf("stats.TrendStats = %+v without the detector", stats.TrendStats)
	}
}
