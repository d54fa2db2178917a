package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/twitgen"
)

// drainedServer runs a small bounded stream to completion and returns a
// server whose background refresh is effectively off (hour-long interval),
// so tests control snapshot freshness explicitly via RefreshNow.
func drainedServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	dict := tagset.NewDictionary()
	gcfg := twitgen.Default()
	gcfg.Seed = 11
	gen, err := twitgen.New(gcfg, dict)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.WindowSpan = stream.Minutes(1)
	cfg.ReportEvery = stream.Minutes(1)
	pipe, err := core.NewPipeline(cfg, core.GeneratorSource(gen.Next, 3000))
	if err != nil {
		t.Fatal(err)
	}
	h := pipe.Start()
	h.Wait()
	srv := New(pipe, h, dict, Config{TopK: 20, Refresh: time.Hour})
	// The handle is done, so the refresh loop takes one final snapshot and
	// returns; wait for it, or it could replace the snapshot a test reads.
	<-srv.loopDone
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// TestStatsSnapshotAge pins the /stats staleness signal: snapshot_age_ms
// is the clock's distance from the served snapshot's consistent pass — it
// grows while no refresh happens and drops back after RefreshNow
// re-snapshots the pipeline. The test owns the clock; nothing sleeps.
func TestStatsSnapshotAge(t *testing.T) {
	srv, _ := drainedServer(t)
	h := srv.Handler()
	clock := srv.Snapshot().TakenAt
	srv.now = func() time.Time { return clock }
	stats := func() (st StatsResponse) {
		t.Helper()
		if err := json.Unmarshal(serve(t, h, "/stats"), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := stats()
	if st.SnapshotAgeMS != 0 {
		t.Fatalf("snapshot_age_ms = %d at the snapshot's own instant, want 0", st.SnapshotAgeMS)
	}
	if st.DocsProcessed == 0 {
		t.Fatal("drained pipeline reports 0 docs_processed")
	}

	// With the refresh loop effectively off, age accumulates with the clock.
	clock = clock.Add(time.Hour)
	aged := stats()
	if want := time.Hour.Milliseconds(); aged.SnapshotAgeMS != want {
		t.Fatalf("snapshot_age_ms = %d an hour on without a refresh, want %d", aged.SnapshotAgeMS, want)
	}

	// A refresh measures from the new snapshot: taken after the old one, so
	// against the same clock it is strictly younger.
	srv.RefreshNow()
	fresh := stats()
	if fresh.SnapshotAgeMS < 0 || fresh.SnapshotAgeMS >= aged.SnapshotAgeMS {
		t.Fatalf("snapshot_age_ms = %d after RefreshNow, want in [0, %d)",
			fresh.SnapshotAgeMS, aged.SnapshotAgeMS)
	}

	// The durability and process gauges ride the same payload: absent
	// subsystems read zero, never negative.
	if fresh.Checkpoints < 0 || fresh.CheckpointStallMS < 0 {
		t.Fatalf("negative durability counters: %d ckpts, %d ms stall",
			fresh.Checkpoints, fresh.CheckpointStallMS)
	}
	if runtime.GOOS == "linux" && fresh.RSSBytes <= 0 {
		t.Fatalf("rss_bytes = %d on linux, want > 0", fresh.RSSBytes)
	}
}

// TestReadyz pins the readiness contract: 503 while no document has been
// processed, 200 once traffic has flowed.
func TestReadyz(t *testing.T) {
	dict := tagset.NewDictionary()
	gcfg := twitgen.Default()
	gcfg.Seed = 12
	gen, err := twitgen.New(gcfg, dict)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	sent := 0
	src := func() (stream.Document, bool) {
		<-gate
		if sent >= 2000 {
			return stream.Document{}, false
		}
		sent++
		return gen.Next(), true
	}
	cfg := core.DefaultConfig()
	cfg.WindowSpan = stream.Minutes(1)
	cfg.ReportEvery = stream.Minutes(1)
	pipe, err := core.NewPipeline(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	h := pipe.Start()
	srv := New(pipe, h, dict, Config{TopK: 20, Refresh: 5 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	// Source is gated shut: nothing can have been processed yet.
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before traffic: status %d, want 503", resp.StatusCode)
	}

	close(gate)
	h.Wait()
	srv.RefreshNow()

	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after traffic: status %d, want 200", resp.StatusCode)
	}
}
