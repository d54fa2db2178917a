package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/stream"
	"repro/internal/tagset"
)

// TestSourceCursorCut covers both branches of the checkpoint cursor's cut:
// a hit replays from the cut period's first document and prunes everything
// below it; a miss (the MaxInt64 sentinel, or a cut period imported from a
// checkpoint) falls back to the base and still prunes — the regression the
// early-return leak used to cause was entries accumulating forever on
// checkpoint-heavy runs whose cuts kept missing.
func TestSourceCursorCut(t *testing.T) {
	c := newSourceCursor(stream.Seconds(5))
	src := c.wrap(SliceSource([]stream.Document{
		{Time: 0},     // period 1, index 0
		{Time: 4000},  // period 1
		{Time: 5000},  // period 2, index 2
		{Time: 9000},  // period 2
		{Time: 10000}, // period 3, index 4
	}))
	for {
		if _, ok := src(); !ok {
			break
		}
	}

	// Hit: replay from period 2's first document; period 1 is pruned.
	docs, from := c.cut(2)
	if docs != 5 || from != 2 {
		t.Fatalf("cut(2) = (%d, %d), want (5, 2)", docs, from)
	}
	c.mu.Lock()
	_, has1 := c.firstDoc[1]
	_, has2 := c.firstDoc[2]
	c.mu.Unlock()
	if has1 || !has2 {
		t.Fatalf("hit prune: period 1 kept=%v, period 2 kept=%v", has1, has2)
	}

	// Miss (sentinel): fall back to base and prune everything below the
	// newest recorded period — which stays, because a later cut can still
	// land on it.
	docs, from = c.cut(math.MaxInt64)
	if docs != 5 || from != 0 {
		t.Fatalf("cut(sentinel) = (%d, %d), want (5, 0)", docs, from)
	}
	c.mu.Lock()
	n := len(c.firstDoc)
	_, has3 := c.firstDoc[3]
	c.mu.Unlock()
	if n != 1 || !has3 {
		t.Fatalf("miss prune left %d entries (period 3 kept=%v), want just period 3", n, has3)
	}

	// A cursor seeded by Adopt (base > 0) falls back to base on a miss,
	// never to 0 — replay may only overlap, never skip.
	c2 := newSourceCursor(stream.Seconds(5))
	c2.mu.Lock()
	c2.base = 100
	c2.mu.Unlock()
	if docs, from := c2.cut(7); docs != 100 || from != 100 {
		t.Fatalf("seeded miss cut = (%d, %d), want (100, 100)", docs, from)
	}
}

// TestSourceCursorCutNoLeak drives many periods through a cursor whose cuts
// always miss (the sentinel) and asserts the first-document map stays
// bounded instead of growing one entry per period.
func TestSourceCursorCutNoLeak(t *testing.T) {
	c := newSourceCursor(stream.Seconds(1))
	period := 0
	src := c.wrap(func() (stream.Document, bool) {
		period++
		return stream.Document{Time: stream.Millis(period * 1000)}, true
	})
	for i := 0; i < 200; i++ {
		src()
		c.cut(math.MaxInt64)
		c.mu.Lock()
		n := len(c.firstDoc)
		c.mu.Unlock()
		if n > 1 {
			t.Fatalf("iteration %d: %d cursor entries retained, want <= 1", i, n)
		}
	}
}

// TestCheckpointAsyncWriter exercises the dedicated checkpoint writer
// directly: synchronous Checkpoint calls complete through the background
// goroutine, the direct fallback still works after the writer stops, and
// the writer-closed error surfaces once the archive is closed — the same
// semantics the hot-path hook relies on.
func TestCheckpointAsyncWriter(t *testing.T) {
	dir := t.TempDir()
	dict := tagset.NewDictionary()
	pipe, err := NewPipeline(restoreConfig(dir, dict), SliceSource(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Checkpoint(); err != nil {
		t.Fatalf("sync checkpoint through the writer goroutine: %v", err)
	}
	if err := pipe.Checkpoint(); err != nil {
		t.Fatalf("second sync checkpoint: %v", err)
	}
	if n := pipe.ckptCount.Load(); n != 2 {
		t.Fatalf("checkpoints written = %d, want 2", n)
	}
	if files := checkpointFiles(t, dir); len(files) != 2 {
		t.Fatalf("checkpoint files = %v, want 2 (retention)", files)
	}

	// After the writer goroutine stops (the run drained), Checkpoint falls
	// back to writing directly and still succeeds while the archive is open.
	pipe.closeCkptWriter()
	if err := pipe.Checkpoint(); err != nil {
		t.Fatalf("direct checkpoint after writer close: %v", err)
	}
	if n := pipe.ckptCount.Load(); n != 3 {
		t.Fatalf("checkpoints written = %d, want 3", n)
	}
	if pipe.ckptWriteNS.Load() <= 0 {
		t.Error("background write time not metered")
	}

	// Once the archive itself closes, the writer-closed error surfaces.
	pipe.arch.Close()
	if err := pipe.Checkpoint(); err == nil {
		t.Fatal("checkpoint after archive close succeeded")
	}
}

// TestCheckpointHookAsync pins the periodic checkpoint path: the period
// hook does nothing but mark a checkpoint due — the state export, encode
// and fsync all happen on the writer goroutine — yet a due hook alone must
// still produce a durable checkpoint file, and dues raised while the
// writer is busy must coalesce instead of queueing up.
func TestCheckpointHookAsync(t *testing.T) {
	dir := t.TempDir()
	dict := tagset.NewDictionary()
	pipe, err := NewPipeline(restoreConfig(dir, dict), SliceSource(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.arch.Close()

	// A due hook, no synchronous Checkpoint call anywhere: the writer
	// goroutine builds and persists the snapshot on its own.
	pipe.onPeriodOpen(1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := pipe.ckptCount.Load(); n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hook-driven checkpoint never written")
		}
		time.Sleep(time.Millisecond)
	}
	if files := checkpointFiles(t, dir); len(files) != 1 {
		t.Fatalf("checkpoint files = %v, want 1", files)
	}

	// Dues coalesce: with the writer parked, many hook firings collapse
	// into one due flag, and un-parking it yields exactly one more write.
	pipe.closeCkptWriter() // park: due flags are no longer consumed
	base := pipe.ckptCount.Load()
	for period := int64(2); period < 10; period++ {
		pipe.onPeriodOpen(period)
	}
	pipe.ckptMu.Lock()
	due, requested := pipe.ckptDue, pipe.ckptSeq > pipe.ckptWritten
	pipe.ckptMu.Unlock()
	if !due || requested {
		t.Fatalf("due = %v requested = %v, want coalesced due flag only", due, requested)
	}
	if n := pipe.ckptCount.Load(); n != base {
		t.Fatalf("parked writer wrote %d checkpoints", n-base)
	}
}

// TestRestoreAfterKillMidCheckpoint simulates SIGKILL arriving mid-write of
// the background checkpoint goroutine: the in-flight temp file survives,
// the newest published checkpoint is torn short, and recovery must fall
// back to the previous checkpoint and replay to a state bit-identical to
// an uninterrupted run.
func TestRestoreAfterKillMidCheckpoint(t *testing.T) {
	docs, dict := restoreStream(t, 30000) // 30 virtual seconds ≈ 6 periods
	cut := 18000

	refDir := t.TempDir()
	ref := snapshotRef(runWhole(t, refDir, dict, docs))

	dirB := t.TempDir()
	runWhole(t, dirB, dict, docs[:cut])

	seqs := checkpointFiles(t, dirB)
	if len(seqs) < 2 {
		t.Fatalf("expected >= 2 retained checkpoints, got %v", seqs)
	}
	newest := seqs[len(seqs)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	// The kill tore the newest checkpoint short and left the temp file of
	// the write that was in flight.
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest+".tmp", data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := resumeFrom(t, dirB, docs)
	compareRecovered(t, ref, resumed)
}

// TestCheckpointBytesDeterministic runs TestPipelineDeterministic's stream
// twice through the sequential executor with the archive, retention, the
// evicted-pair LRU and the trend detector on, and requires the two
// archives to hold byte-identical segment files and final checkpoints. The
// bytes are a function of the reports' arrival order, which the sequential
// executor repeats, and not of when the writer goroutine happened to build
// the periodic checkpoints before the final one: those differ between the
// runs, and with them which of the final checkpoint's sections come from
// the section cache.
func TestCheckpointBytesDeterministic(t *testing.T) {
	run := func() string {
		docs, dict := shortStream(t, 20000, 9)
		cfg := fastConfig(partition.DS)
		cfg.ArchiveDir, cfg.ArchiveDict = t.TempDir(), dict
		cfg.CheckpointEvery = 1
		cfg.KeepPeriods = 2
		cfg.EvictedPairs = 256
		cfg.Trend = true
		pipe, err := NewPipeline(cfg, SliceSource(docs))
		if err != nil {
			t.Fatal(err)
		}
		pipe.Run()
		if err := pipe.ArchiveErr(); err != nil {
			t.Fatalf("archive error: %v", err)
		}
		return cfg.ArchiveDir
	}
	dirA, dirB := run(), run()
	// files maps each segment file's name, and "final checkpoint", to its
	// bytes.
	files := func(dir string) map[string][]byte {
		out := map[string][]byte{}
		segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		ckpts := checkpointFiles(t, dir)
		if len(ckpts) == 0 {
			t.Fatal("no checkpoint written")
		}
		for _, path := range append(segs, ckpts[len(ckpts)-1]) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			name := filepath.Base(path)
			if strings.HasSuffix(name, ".ckpt") {
				name = "final checkpoint"
			}
			out[name] = data
		}
		return out
	}
	a, b := files(dirA), files(dirB)
	if len(a) < 3 || a["final checkpoint"] == nil {
		t.Fatalf("archive holds %d files, want segments and a final checkpoint", len(a))
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Errorf("%s: %d bytes, differs from the second run's %d", name, len(data), len(b[name]))
		}
	}
	if len(a) != len(b) {
		t.Errorf("the runs left %d and %d files", len(a), len(b))
	}
}
