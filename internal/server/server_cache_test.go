package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/twitgen"
)

// trendService starts a trend-enabled pipeline on a generated stream behind
// a server whose background refresh is effectively off, so the test drives
// every refresh itself. The source runs unpaced until a snapshot shows
// something on every cached route (a full top-k, a trend ranking, installed
// partitions: an unpaced stream of a fixed length can drain before the
// first partitioning installs), reports on held how many documents that
// took, waits for release, and then hands over tail more documents
// (tail < 0: until stop).
func trendService(tb testing.TB, topK, tail int) (srv *Server, h *core.Handle, held <-chan int64, release, stop func()) {
	tb.Helper()
	dict := tagset.NewDictionary()
	gcfg := twitgen.Default()
	gcfg.Seed = 11
	gen, err := twitgen.New(gcfg, dict)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.WindowSpan = stream.Seconds(15)
	cfg.ReportEvery = stream.Seconds(15)
	cfg.StatsEvery = 500
	cfg.Trend = true
	cfg.TrendMinSupport = 2
	cfg.TrendThreshold = 0.01

	var pipe *core.Pipeline
	gate, heldc := make(chan struct{}), make(chan int64, 1)
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	const giveUp = 1 << 20 // documents; the checks below fail on the empty snapshot
	sent, rich := int64(0), false
	src, stop := core.StopSource(func() (stream.Document, bool) {
		if !rich && sent%1000 == 0 && sent > 0 {
			snap := pipe.Snapshot(topK)
			rich = sent >= giveUp ||
				len(snap.TopK) >= topK && len(snap.Trends.Top) > 0 && len(snap.Partitions) > 0
			if rich {
				heldc <- sent
				<-gate
			}
		}
		if rich {
			if tail == 0 {
				return stream.Document{}, false
			}
			tail--
		}
		sent++
		return gen.Next(), true
	})
	pipe, err = core.NewPipeline(cfg, src)
	if err != nil {
		tb.Fatal(err)
	}
	h = pipe.Start()
	srv = New(pipe, h, dict, Config{TopK: topK, Refresh: time.Hour})
	tb.Cleanup(func() { release(); stop(); h.Wait(); srv.Close() })
	return srv, h, heldc, release, stop
}

// drainedTrendService is trendService run to completion.
func drainedTrendService(tb testing.TB, topK int) *Server {
	tb.Helper()
	srv, h, _, release, _ := trendService(tb, topK, 0)
	release()
	h.Wait()
	srv.Close() // the loop's final refresh is in; only the test refreshes from here
	if snap := srv.Snapshot(); len(snap.TopK) < topK || len(snap.Trends.Top) == 0 || len(snap.Partitions) == 0 {
		tb.Fatalf("drained run left too little to serve: %d coefficients, %d trends, %d partitions",
			len(snap.TopK), len(snap.Trends.Top), len(snap.Partitions))
	}
	return srv
}

// waitFor spins until cond holds. The deadline only turns a hang into a
// failure; nothing is asserted about how long cond took.
func waitFor(tb testing.TB, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatalf("gave up waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// serve answers one GET in process, on the calling goroutine.
func serve(tb testing.TB, h http.Handler, path string) []byte {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// entriesPerRoute counts a rendered snapshot's cache entries by route.
func entriesPerRoute(r *rendered) map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := make(map[string]int)
	for key := range r.bodies {
		n[key.route]++
	}
	return n
}

// checkRendered is the differential: every snapshot route's served body
// must decode to exactly the response the builder functions give for the
// current snapshot and the clamped k.
func checkRendered(t *testing.T, srv *Server) {
	t.Helper()
	cur := srv.cur.Load()
	srv.now = func() time.Time { return cur.snap.TakenAt.Add(7 * time.Millisecond) }
	h := srv.Handler()
	det := srv.pipe.Trends()
	topK := srv.cfg.TopK

	equal := func(path string, got, want interface{}) {
		t.Helper()
		if err := json.Unmarshal(serve(t, h, path), got); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got := reflect.ValueOf(got).Elem().Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s served\n%+v\nthe snapshot gives\n%+v", path, got, want)
		}
	}
	for _, k := range []int{1, 20, topK, topK + 1, 10000} {
		equal(fmt.Sprintf("/topk?k=%d", k), new(TopKResponse), srv.topKResponse(cur.snap, min(k, topK)))
		equal(fmt.Sprintf("/trends?k=%d", k), new(TrendsResponse),
			srv.trendsResponse(cur.snap, det, min(k, topK, det.Config().TopK)))
	}
	equal("/partition", new(PartitionResponse), srv.partitionResponse(cur.snap))
	// The Tracker's intake counters are served once, at the top level.
	stats := cur.snap.Stats
	if stats.CoefficientsReceived != stats.Tracker.Received || stats.CoefficientsDuplicate != stats.Tracker.Duplicates {
		t.Errorf("snapshot intake counters %d/%d differ from the Tracker's %d/%d",
			stats.CoefficientsReceived, stats.CoefficientsDuplicate, stats.Tracker.Received, stats.Tracker.Duplicates)
	}
	stats.Tracker.Received, stats.Tracker.Duplicates = 0, 0
	equal("/stats", new(StatsResponse), StatsResponse{SnapshotAgeMS: 7, statsBody: statsBody{cur.rss, stats}})

	if srv.cur.Load() != cur {
		t.Fatal("the snapshot was swapped under the differential")
	}
}

// TestRenderedDifferential serves every cached route before and after a
// refresh and compares each body with the response built directly from
// the snapshot; a body served after the refresh must carry the new
// snapshot's docs_processed, never the previous one's.
func TestRenderedDifferential(t *testing.T) {
	const topK, tail = 30, 5000
	srv, h, held, release, _ := trendService(t, topK, tail)
	docs := <-held
	waitFor(t, "the held documents", func() bool { return srv.pipe.Snapshot(1).DocsProcessed == docs })
	srv.RefreshNow()
	if before := srv.Snapshot(); before.DocsProcessed != docs || len(before.TopK) < topK {
		t.Fatalf("held snapshot has %d docs and %d coefficients, want %d and %d",
			before.DocsProcessed, len(before.TopK), docs, topK)
	}
	checkRendered(t, srv)

	release()
	h.Wait()
	srv.Close() // the loop's final refresh is in
	after := srv.Snapshot()
	if after.DocsProcessed != docs+tail {
		t.Fatalf("drained snapshot has %d docs, want %d", after.DocsProcessed, docs+tail)
	}
	checkRendered(t, srv)
	for _, path := range []string{"/topk", "/topk?k=1", "/stats"} {
		var got struct {
			DocsProcessed int64 `json:"docs_processed"`
		}
		if err := json.Unmarshal(serve(t, srv.Handler(), path), &got); err != nil {
			t.Fatal(err)
		}
		if got.DocsProcessed != after.DocsProcessed {
			t.Errorf("%s after the refresh has docs_processed %d, the snapshot %d", path, got.DocsProcessed, after.DocsProcessed)
		}
	}
}

// TestRenderedBound varies k far past TopK: the clamp runs before k
// becomes a cache key, so a rendered snapshot never holds more than TopK
// bodies per route.
func TestRenderedBound(t *testing.T) {
	const topK = 20
	srv := drainedTrendService(t, topK)
	h := srv.Handler()
	for k := 1; k <= 10000; k++ {
		serve(t, h, fmt.Sprintf("/topk?k=%d", k))
		serve(t, h, fmt.Sprintf("/trends?k=%d", k))
	}
	serve(t, h, "/partition")
	serve(t, h, "/stats")
	cur := srv.cur.Load()
	want := map[string]int{
		"/topk":      topK,
		"/trends":    min(topK, srv.pipe.Trends().Config().TopK),
		"/partition": 1,
		"/stats":     1,
	}
	if got := entriesPerRoute(cur); !reflect.DeepEqual(got, want) {
		t.Errorf("cache entries per route = %v, want %v", got, want)
	}
	if n, entries := cur.encodes.Load(), want["/topk"]+want["/trends"]+2; n != int64(entries) {
		t.Errorf("%d bodies encoded for %d entries", n, entries)
	}
}

// TestRenderedConcurrentEncodeOnce hammers the four cached routes from
// eight goroutines while another keeps refreshing the snapshot of a
// pipeline that is still ingesting. However the requests interleave, each
// (snapshot, key) is encoded exactly once and every body is valid JSON.
func TestRenderedConcurrentEncodeOnce(t *testing.T) {
	srv, h, held, release, _ := trendService(t, 10, 8000)
	<-held // every route has something to render
	release()
	// Only the test refreshes from here: left running, the refresh loop's
	// final refresh at the drain can replace the snapshot a round below is
	// waiting on, which no request then renders from.
	srv.Close()
	handler := srv.Handler()
	paths := []string{"/topk?k=3", "/topk", "/topk?k=500", "/trends?k=3", "/trends", "/partition", "/stats"}

	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !done.Load(); i++ {
				path := paths[i%len(paths)]
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
					t.Errorf("%s: status %d, body %q", path, rec.Code, rec.Body.Bytes())
					return
				}
			}
		}(g)
	}

	// Refresh only once the current snapshot has been rendered from, so
	// every round exercises the first-request race.
	seen := []*rendered{srv.cur.Load()}
	live := 0
	for round := 0; round < 12 && !t.Failed(); round++ {
		cur := seen[len(seen)-1]
		waitFor(t, "a request to render the snapshot", func() bool { return cur.encodes.Load() > 0 || t.Failed() })
		srv.RefreshNow()
		if h.Running() {
			live++
		}
		seen = append(seen, srv.cur.Load())
	}
	done.Store(true)
	wg.Wait()
	if live == 0 {
		t.Error("no refresh ran beside the ingest: the stream drained first")
	}

	entries := 0
	for i, r := range seen {
		n := 0
		for _, c := range entriesPerRoute(r) {
			n += c
		}
		if got := r.encodes.Load(); got != int64(n) {
			t.Errorf("snapshot %d: %d encodes for %d cache entries", i, got, n)
		}
		entries += n
	}
	if entries < len(seen)-1 {
		t.Errorf("%d cache entries over %d snapshots: the routes were not exercised", entries, len(seen))
	}
}

// TestCacheHitAllocs guards the point of the cache: a hit on /topk costs
// request parsing and one Write, not a payload's worth of allocations (42
// per request when every request rendered its own body). The collector is
// off while it counts: a cycle allocates on its own account.
func TestCacheHitAllocs(t *testing.T) {
	srv := drainedTrendService(t, 100)
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/topk?k=20", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(200, func() {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	})
	if allocs > 12 {
		t.Errorf("cache-hit /topk allocates %.0f times per request, want <= 12", allocs)
	}
	if n := srv.cur.Load().encodes.Load(); n != 1 {
		t.Errorf("%d encodes for one key", n)
	}
}

// TestStatsCache pins /stats on the shared cache: the static remainder is
// encoded once per snapshot and re-served until a refresh swaps the
// snapshot, while the head (snapshot_age_ms) follows the clock between
// requests.
func TestStatsCache(t *testing.T) {
	srv := drainedTrendService(t, 20)
	h := srv.Handler()
	first := srv.cur.Load()
	clock := first.snap.TakenAt
	srv.now = func() time.Time { return clock }

	var st1, st2 StatsResponse
	if err := json.Unmarshal(serve(t, h, "/stats"), &st1); err != nil {
		t.Fatal(err)
	}
	if st1.DocsProcessed == 0 {
		t.Fatal("cached /stats payload lost docs_processed")
	}
	clock = clock.Add(20 * time.Millisecond)
	if err := json.Unmarshal(serve(t, h, "/stats"), &st2); err != nil {
		t.Fatal(err)
	}
	if st1.SnapshotAgeMS != 0 || st2.SnapshotAgeMS != 20 {
		t.Errorf("snapshot_age_ms = %d then %d with the clock 20ms on, want 0 then 20 — head no longer dynamic",
			st1.SnapshotAgeMS, st2.SnapshotAgeMS)
	}
	st2.SnapshotAgeMS = st1.SnapshotAgeMS
	if !reflect.DeepEqual(st1, st2) {
		t.Errorf("static remainder changed without a refresh:\n%+v\n%+v", st1, st2)
	}
	if n := first.encodes.Load(); n != 1 {
		t.Errorf("two /stats requests on one snapshot encoded %d bodies, want 1", n)
	}

	// A refresh drops the body with the snapshot it was rendered from.
	srv.RefreshNow()
	second := srv.cur.Load()
	if second == first || second.snap == first.snap {
		t.Fatal("RefreshNow did not swap the snapshot")
	}
	if n := second.encodes.Load(); n != 0 {
		t.Errorf("a fresh snapshot starts with %d encoded bodies", n)
	}
	serve(t, h, "/stats")
	if a, b := first.encodes.Load(), second.encodes.Load(); a != 1 || b != 1 {
		t.Errorf("after the refresh: %d encodes on the old snapshot, %d on the new, want 1 and 1", a, b)
	}
}
