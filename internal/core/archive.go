package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/flight"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/telemetry"
)

// This file wires the archive subsystem (internal/archive) into the
// pipeline: a cursor-tracking source wrapper, the checkpoint path, and the
// restore path a restarted service recovers through.
//
// The recovery protocol in one paragraph: a checkpoint never contains a
// partial reporting period. When the Tracker registers a brand-new period
// P (meaning period P-… just produced its first flush and P's documents
// are flowing), the checkpointer cuts the state strictly before P and
// records ReplayFrom — the stream index of P's first document. A restarted
// process imports the cut, skips ReplayFrom documents of its rebuilt
// source, and feeds the rest: the Calculators recount period P from
// scratch (their tables are period-scoped, so nothing else is needed),
// the Tracker's CN-max dedup absorbs any overlap, and the trend
// predictors — exported rolled back to their pre-P state — re-advance
// identically. On a deterministic or replayable source the recovered run
// is indistinguishable from one that never stopped, as long as the
// partition assignment was stable across the replayed window (repartition
// decisions depend on monitoring state that restarts empty).

// sourceCursor counts the documents a pipeline's source has produced and
// remembers, per reporting period, the stream index of the period's first
// document — the ReplayFrom value checkpoints record.
type sourceCursor struct {
	every stream.Millis

	mu       sync.Mutex
	base     int64           // documents skipped before this process fed any
	fed      int64           // documents fed by this process
	firstDoc map[int64]int64 // period id -> absolute index of its first document
}

func newSourceCursor(every stream.Millis) *sourceCursor {
	return &sourceCursor{every: every, firstDoc: make(map[int64]int64)}
}

// wrap interposes the cursor on a document source.
func (c *sourceCursor) wrap(src DocumentSource) DocumentSource {
	return func() (stream.Document, bool) {
		d, ok := src()
		if !ok {
			return d, ok
		}
		c.mu.Lock()
		idx := c.base + c.fed
		c.fed++
		// A document at time t belongs to the period ending at
		// alignUp(t, every), i.e. period id t/every + 1.
		period := int64(d.Time/c.every) + 1
		if _, seen := c.firstDoc[period]; !seen {
			c.firstDoc[period] = idx
		}
		c.mu.Unlock()
		return d, true
	}
}

// cut returns the checkpoint cursor for a cut at replayPeriod: the total
// documents produced and the index replay must resume from. Entries below
// the cut are pruned (they can never be replayed again) — on the miss
// branch too, or they accumulate forever on checkpoint-heavy runs that
// keep cutting at periods this cursor never saw a document of.
func (c *sourceCursor) cut(replayPeriod int64) (docsFed, replayFrom int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	docsFed = c.base + c.fed
	replayFrom, ok := c.firstDoc[replayPeriod]
	pruneBelow := replayPeriod
	if !ok {
		// No document of the cut period passed this process's source —
		// nothing has been flushed yet (the MaxInt64 sentinel), or the cut
		// period came entirely out of an imported checkpoint. Resuming
		// where this process resumed is always safe: replay can only
		// overlap, never skip.
		replayFrom = c.base
		// Prune conservatively: drop everything below the newest recorded
		// period but keep that one — period registration lags document
		// flow, so a later cut can still land on it and want its
		// first-document index. Dropping older entries stays safe: a
		// future cut that misses falls back to c.base, which only widens
		// the replay overlap, never skips documents.
		pruneBelow = math.MinInt64
		for p := range c.firstDoc {
			if p > pruneBelow {
				pruneBelow = p
			}
		}
	}
	for p := range c.firstDoc {
		if p < pruneBelow {
			delete(c.firstDoc, p)
		}
	}
	return docsFed, replayFrom
}

// onPeriodOpen is the Tracker's period hook: every cfg.CheckpointEvery
// freshly opened periods, a checkpoint is due. The hook runs on a
// reporting task's goroutine — directly on the hot path — so it does
// nothing but mark the due flag and wake the writer goroutine, which
// builds the snapshot and writes it off the hot path. Dues arriving while
// the writer is busy coalesce into one — each snapshot is a complete
// recovery point, so under pressure the periodic cadence degrades to the
// writer's pace instead of stalling ingest. Write errors are remembered
// for ArchiveErr rather than propagated into the dataflow.
func (p *Pipeline) onPeriodOpen(period int64) {
	every := p.cfg.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	p.archMu.Lock()
	p.periodsOpened++
	due := p.periodsOpened%int64(every) == 0
	p.archMu.Unlock()
	if !due {
		return
	}
	start := time.Now()
	p.ckptMu.Lock()
	p.ckptDue = true
	p.ckptCond.Broadcast()
	p.ckptMu.Unlock()
	p.ckptStallNS.Add(time.Since(start).Nanoseconds())
}

// buildCheckpoint snapshots the restartable state as one cut: every sealed
// reporting period, the trend detector, the partitioning layer, the tag
// dictionary and the source cursor. It runs inside the archive Writer's
// checkpoint write (writeCheckpoint), whose section cache it consults, so
// a Tracker or trend-event period unchanged since the last checkpoint is
// neither gathered nor encoded again. The exports copy everything mutable
// (tagset backing arrays are immutable by package contract).
//
// The cut is the newest period the Tracker knows: that period may still be
// partially flushed (other Calculators get to it when their next
// notification arrives), so it is replayed, not persisted. It is read
// while the trend detector's intake is paused (trend.Stream.ExportCut), so
// the detector's export holds the observations below the cut and none
// after it (DESIGN.md §Archive & recovery has the argument). The
// dictionary is read after the exports, so it names every tag they hold;
// it is append-only, so the names of the last build are kept and only the
// tags interned since are added to them.
func (p *Pipeline) buildCheckpoint(cache *archive.SectionCache) *archive.Checkpoint {
	start := time.Now()
	defer func() { p.ckptBuildHist.Record(time.Since(start)) }()
	var cut int64
	var flushed bool
	readCut := func() int64 {
		if cut, flushed = p.tracker.NewestPeriod(); !flushed {
			cut = math.MaxInt64 // nothing flushed yet: export the empty state
		}
		return cut
	}
	cp := &archive.Checkpoint{}
	if p.trends != nil {
		st := p.trends.ExportCut(readCut, cache.TrendPeriod)
		cp.Trend = &st
	} else {
		readCut()
	}
	cp.Tracker = p.tracker.ExportStateReusing(cut, cache.TrackerPeriod)
	if flushed {
		cp.ReplayPeriod = cut
	}
	cp.DocsFed, cp.ReplayFrom = p.cursor.cut(cut)
	dict := p.cfg.ArchiveDict
	for t, n := len(p.ckptDict), dict.Len(); t < n; t++ {
		p.ckptDict = append(p.ckptDict, dict.String(tagset.Tag(t)))
	}
	cp.Dict = p.ckptDict
	cp.Partitions = p.merger.PartitionsSnapshot()
	cp.Merges = p.merger.MergeCount()
	cp.Epoch, _ = p.disseminator.Epoch()
	cp.RefAvgCom, cp.RefMaxLoad, cp.HasRef = p.disseminator.QualityRefs()
	return cp
}

// ckptLoop is the dedicated checkpoint writer: it serves requested and due
// checkpoints — state export, encode, fsync, rename all off the hot path —
// then wakes synchronous Checkpoint callers. One write covers every
// request and due raised before it started. It exits after
// closeCkptWriter, writing a final requested checkpoint first; a bare due
// flag is dropped at close because the drain path checkpoints
// synchronously right before closing.
func (p *Pipeline) ckptLoop() {
	defer close(p.ckptDone)
	for {
		p.ckptMu.Lock()
		for p.ckptSeq == p.ckptWritten && !p.ckptDue && !p.ckptClosed {
			p.ckptCond.Wait()
		}
		seq, requested := p.ckptSeq, p.ckptSeq > p.ckptWritten
		p.ckptDue = false
		closed := p.ckptClosed
		p.ckptMu.Unlock()

		if !requested && closed {
			return
		}
		err := p.writeCheckpoint(time.Now())
		if err != nil {
			p.archMu.Lock()
			if p.archErr == nil {
				p.archErr = err
			}
			p.archMu.Unlock()
		}
		p.ckptMu.Lock()
		p.ckptWritten = seq
		p.ckptErr = err
		p.ckptCond.Broadcast()
		p.ckptMu.Unlock()
	}
}

// closeCkptWriter stops the writer goroutine, letting it write a requested
// checkpoint first, and waits for it to exit. Idempotent.
func (p *Pipeline) closeCkptWriter() {
	if p.ckptDone == nil {
		return
	}
	p.ckptMu.Lock()
	if !p.ckptClosed {
		p.ckptClosed = true
		p.ckptCond.Broadcast()
	}
	p.ckptMu.Unlock()
	<-p.ckptDone
}

// Checkpoint writes a recovery point to the archive directory and returns
// once it is durable. It may be called at any time — before, during or
// after the run — from any goroutine; the tagcorrd daemon calls it on
// SIGTERM before draining, and the pipeline itself checkpoints every
// Config.CheckpointEvery periods (asynchronously, via the period hook)
// and once more when the run drains. The writer goroutine builds the
// checkpoint after the call, so the archived state is at least as new as
// the call; concurrent calls may share one write.
func (p *Pipeline) Checkpoint() error {
	if p.arch == nil {
		return fmt.Errorf("core: archive not configured (Config.ArchiveDir)")
	}
	p.ckptMu.Lock()
	if p.ckptClosed {
		p.ckptMu.Unlock()
		// The writer goroutine is gone (the run drained). Write directly:
		// during shutdown this still succeeds; after the archive closed it
		// returns the writer-closed error, as it always has.
		return p.writeCheckpoint(time.Now())
	}
	p.ckptSeq++
	seq := p.ckptSeq
	p.ckptCond.Broadcast()
	for p.ckptWritten < seq {
		p.ckptCond.Wait()
	}
	err := p.ckptErr
	p.ckptMu.Unlock()
	return err
}

// writeCheckpoint is the one checkpoint write: the build, run inside the
// archive Writer's checkpoint write so that it sees the section cache the
// encode then uses, the checkpoint_begin flight event, the encode + fsync
// + rename, and the accounting of a completed write. began is when the
// work behind this checkpoint started, so the cumulative write time
// includes the build; the write histogram records what follows it.
func (p *Pipeline) writeCheckpoint(began time.Time) error {
	built := began
	err := p.arch.WriteCheckpointFrom(func(cache *archive.SectionCache) *archive.Checkpoint {
		cp := p.buildCheckpoint(cache)
		p.cfg.Flight.RecordEvent(flight.EventCheckpointBegin,
			fmt.Sprintf("replay_period=%d docs_fed=%d", cp.ReplayPeriod, cp.DocsFed))
		built = time.Now()
		return cp
	})
	took := time.Since(built)
	p.ckptWriteHist.Record(took)
	p.ckptWriteNS.Add(time.Since(began).Nanoseconds())
	p.ckptCount.Add(1)
	p.noteCheckpointDone(err, took)
	return err
}

// noteCheckpointDone records the end of one checkpoint write: the
// checkpoint_end flight event (with the error, if any), the freshness
// stamp the watchdog's checkpoint-overdue probe reads, and — on error —
// an archive_error event marking the latch.
func (p *Pipeline) noteCheckpointDone(err error, took time.Duration) {
	p.lastCkptNS.Store(telemetry.Now())
	if err != nil {
		p.cfg.Flight.RecordEvent(flight.EventCheckpointEnd, "failed after "+took.String()+": "+err.Error())
		p.cfg.Flight.RecordEvent(flight.EventArchiveError, "checkpoint write: "+err.Error())
		return
	}
	p.cfg.Flight.RecordEvent(flight.EventCheckpointEnd, "written in "+took.String())
}

// CompactorStats reports the archive compactor's counters (zero when the
// pipeline runs without archiving or without retention).
func (p *Pipeline) CompactorStats() archive.CompactorStats {
	if p.compactor == nil {
		return archive.CompactorStats{}
	}
	return p.compactor.Stats()
}

// ArchiveErr returns the first error the background checkpoint path hit
// (nil when archiving is off or healthy). The daemon surfaces it at
// shutdown.
func (p *Pipeline) ArchiveErr() error {
	p.archMu.Lock()
	defer p.archMu.Unlock()
	return p.archErr
}

// finishArchive writes the end-of-run checkpoint, stops the checkpoint
// writer and the compactor, and closes the segment files; called once
// from collect when the stream has drained. After the drain the newest
// Tracker period is the Cleanup-flushed final partial period, so the
// uniform cut rule applies unchanged: that period is replayed on the next
// start.
func (p *Pipeline) finishArchive() {
	if p.arch == nil {
		return
	}
	if err := p.Checkpoint(); err != nil {
		p.archMu.Lock()
		p.archErr = err
		p.archMu.Unlock()
	}
	p.closeCkptWriter()
	if p.compactor != nil {
		p.compactor.Close()
		if err := p.compactor.Err(); err != nil {
			p.archMu.Lock()
			if p.archErr == nil {
				p.archErr = err
			}
			p.archMu.Unlock()
		}
	}
	p.arch.Close()
}

// Recovered is the state core.Restore loaded from an archive directory.
// Use it to rebuild the tag dictionary, fast-forward the rebuilt source,
// and (via Pipeline.Adopt) import the operator state.
type Recovered struct {
	cp   *archive.Checkpoint
	dict *tagset.Dictionary
}

// Restore loads the newest valid checkpoint under dir. It returns
// (nil, nil) when the directory holds no checkpoint — a fresh start — and
// an error when checkpoints exist but none validates.
func Restore(dir string) (*Recovered, error) {
	cp, err := archive.LoadCheckpoint(dir)
	if err != nil || cp == nil {
		return nil, err
	}
	dict := tagset.NewDictionary()
	for _, s := range cp.Dict {
		dict.Intern(s)
	}
	return &Recovered{cp: cp, dict: dict}, nil
}

// Dictionary returns the rebuilt tag dictionary. Build the input source
// with it (and pass it as Config.ArchiveDict) so the stream's tags intern
// to the identifiers the recovered state references.
func (r *Recovered) Dictionary() *tagset.Dictionary { return r.dict }

// SkipDocs returns how many documents of the rebuilt source must be
// discarded before feeding the pipeline — the replay cursor.
func (r *Recovered) SkipDocs() int64 { return r.cp.ReplayFrom }

// Periods returns the recovered reporting period ids, ascending.
func (r *Recovered) Periods() []int64 {
	out := make([]int64, 0, len(r.cp.Tracker.Periods))
	for _, pc := range r.cp.Tracker.Periods {
		out = append(out, pc.Period)
	}
	return out
}

// Epoch returns the recovered partition epoch (0: none installed).
func (r *Recovered) Epoch() int { return r.cp.Epoch }

// FastForward wraps src so its first SkipDocs documents are read and
// discarded (lazily, on the first pull): the replayed stream then starts
// exactly at the recovered cut. The discarded reads re-intern their tags,
// which is harmless — the dictionary already contains them.
func (r *Recovered) FastForward(src DocumentSource) DocumentSource {
	skip := r.cp.ReplayFrom
	done := false
	return func() (stream.Document, bool) {
		if !done {
			done = true
			for i := int64(0); i < skip; i++ {
				if _, ok := src(); !ok {
					break
				}
			}
		}
		return src()
	}
}

// Adopt imports recovered state into a freshly built pipeline. Call it
// between NewPipeline and Start (never on a running pipeline): it loads
// the Tracker's periods and evicted-pair LRU, the trend predictors and
// events, installs the recovered partitions into the Merger and the
// Disseminator (so routing resumes at the recovered epoch instead of
// re-bootstrapping), and seeds the source cursor so the next checkpoint's
// ReplayFrom stays absolute in the original stream.
func (p *Pipeline) Adopt(r *Recovered) error {
	if r == nil {
		return nil
	}
	cp := r.cp
	p.tracker.ImportState(cp.Tracker)
	if cp.Trend != nil && p.trends != nil {
		p.trends.ImportState(*cp.Trend)
	}
	if len(cp.Partitions) > 0 {
		p.merger.RestorePartitions(cp.Partitions, cp.Merges)
		p.disseminator.RestorePartitions(cp.Epoch, cp.Partitions, cp.RefAvgCom, cp.RefMaxLoad, cp.HasRef)
	}
	if p.cursor != nil {
		p.cursor.mu.Lock()
		p.cursor.base = cp.ReplayFrom
		p.cursor.mu.Unlock()
	}
	return nil
}
