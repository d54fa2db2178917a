// Package core is the library's public entry point: it wires the paper's
// full operator topology (Figure 2) into a runnable Pipeline and collects
// the run's results — Jaccard coefficient reports, communication and load
// statistics, repartition history, and raw dataflow counters.
//
// A minimal use looks like:
//
//	cfg := core.DefaultConfig()
//	cfg.Algorithm = partition.DS
//	p, err := core.NewPipeline(cfg, core.GeneratorSource(gen, 100000))
//	res := p.Run()
//	for _, c := range res.Coefficients() { ... }
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/flight"
	"repro/internal/jaccard"
	"repro/internal/operators"
	"repro/internal/storm"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/trend"
)

// Config re-exports the operator configuration as the pipeline's knob set.
type Config = operators.Config

// DefaultConfig returns the paper's default parameters (Section 8.2).
func DefaultConfig() Config { return operators.DefaultConfig() }

// DocumentSource yields the input stream; return false to end the run.
type DocumentSource func() (stream.Document, bool)

// GeneratorSource caps a generator-like Next function at n documents.
func GeneratorSource(next func() stream.Document, n int) DocumentSource {
	i := 0
	return func() (stream.Document, bool) {
		if i >= n {
			return stream.Document{}, false
		}
		i++
		return next(), true
	}
}

// StopSource wraps src so the stream can be ended from outside: after stop
// is called, the source reports end-of-stream regardless of remaining
// input. This is how a long-running service drains gracefully — stop the
// source, then Handle.Wait for the in-flight tuples to flush. stop is
// idempotent and safe to call from any goroutine.
func StopSource(src DocumentSource) (wrapped DocumentSource, stop func()) {
	var stopped atomic.Bool
	wrapped = func() (stream.Document, bool) {
		if stopped.Load() {
			return stream.Document{}, false
		}
		return src()
	}
	return wrapped, func() { stopped.Store(true) }
}

// SliceSource streams a fixed document slice.
func SliceSource(docs []stream.Document) DocumentSource {
	i := 0
	return func() (stream.Document, bool) {
		if i >= len(docs) {
			return stream.Document{}, false
		}
		d := docs[i]
		i++
		return d, true
	}
}

// Pipeline is a built, single-use instance of the full topology.
type Pipeline struct {
	cfg  Config
	topo *storm.Topology

	merger       *operators.Merger
	disseminator *operators.Disseminator
	tracker      *operators.Tracker
	trends       *trend.Stream // nil unless cfg.Trend

	// Durability (nil / zero unless cfg.ArchiveDir): the segment/checkpoint
	// writer, the source cursor checkpoints record, the background
	// compactor maintaining the archive's compacted tier, and the period
	// counter driving the checkpoint cadence. archErr remembers the first
	// failed background checkpoint for ArchiveErr.
	arch          *archive.Writer
	cursor        *sourceCursor
	compactor     *archive.Compactor
	archMu        sync.Mutex
	archErr       error
	periodsOpened int64

	// The checkpoint writer goroutine: the period hook just marks a
	// checkpoint due, and a synchronous Checkpoint call requests one (its
	// ckptSeq); ckptLoop builds the state snapshot and does the encode +
	// fsync, all off the hot path. Dues and requests raised while a
	// checkpoint is being written coalesce into the next one, whose build
	// starts after all of them (each snapshot is a complete recovery point,
	// so one write covers them all). ckptWritten is the highest request seq
	// covered by a completed write; synchronous Checkpoint callers wait on
	// it.
	ckptMu      sync.Mutex
	ckptCond    *sync.Cond
	ckptDue     bool // a periodic checkpoint is due (coalesces)
	ckptSeq     uint64
	ckptWritten uint64
	ckptErr     error // error of the most recent completed write
	ckptClosed  bool
	ckptDone    chan struct{}

	// ckptDict is the archive dictionary's names as of the last checkpoint
	// build; builds run one at a time, under the archive Writer's
	// checkpoint mutex.
	ckptDict []string

	// ckptCount counts completed checkpoint writes. ckptStallNS is
	// cumulative hot-path time: what the period hook spent marking
	// checkpoints due on a Tracker task's goroutine (the benchmark harness
	// surfaces it as checkpoint_stall_ms; with the build and write both on
	// the writer goroutine it is microseconds). ckptWriteNS is the
	// cumulative background time (state export + encode + fsync) that
	// used to be the stall before the writer moved off the hot path.
	ckptCount   atomic.Int64
	ckptStallNS atomic.Int64
	ckptWriteNS atomic.Int64

	// lastCkptNS is the telemetry.Now stamp of the most recent completed
	// checkpoint write (0: none yet). The watchdog's checkpoint-overdue
	// probe reads it through LastCheckpointAge.
	lastCkptNS atomic.Int64

	// stages holds the end-to-end stage-latency histograms every pipeline
	// maintains (doc→partition, doc→coefficient, doc→tracker-accept);
	// always non-nil after NewPipeline, shared with cfg.Stages when the
	// caller provided one. The checkpoint and compaction histograms meter
	// the durability path; they exist even with archiving off (then they
	// simply stay empty) so RegisterMetrics can wire them unconditionally.
	stages        *operators.Stages
	ckptBuildHist *telemetry.Histogram
	ckptWriteHist *telemetry.Histogram
	ckptFsyncHist *telemetry.Histogram
	compactHist   *telemetry.Histogram
}

// NewPipeline assembles the topology for the given configuration and input.
// The returned pipeline is single-use: call exactly one of Run or Start.
// Snapshot may be called at any time, including while the run is
// streaming.
func NewPipeline(cfg Config, src DocumentSource) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil document source")
	}
	if cfg.Stages == nil {
		cfg.Stages = operators.NewStages()
	}
	if cfg.TrackerTasks == 0 {
		cfg.TrackerTasks = 1
	}
	p := &Pipeline{
		cfg:           cfg,
		stages:        cfg.Stages,
		ckptBuildHist: telemetry.NewHistogram(),
		ckptWriteHist: telemetry.NewHistogram(),
		ckptFsyncHist: telemetry.NewHistogram(),
		compactHist:   telemetry.NewHistogram(),
	}

	if cfg.ArchiveDir != "" {
		w, err := archive.OpenWriter(cfg.ArchiveDir)
		if err != nil {
			return nil, err
		}
		w.SetFsyncHist(p.ckptFsyncHist)
		p.arch = w
		p.cursor = newSourceCursor(cfg.ReportEvery)
		src = p.cursor.wrap(src)
		p.ckptCond = sync.NewCond(&p.ckptMu)
		p.ckptDone = make(chan struct{})
		go p.ckptLoop()
	}

	// The topology the paper's experiments run: one Source, whose Parser
	// step drops and cuts tagsets, and one Disseminator. Each document goes
	// from the Source to its Partitioner and to the Disseminator.
	b := storm.NewBuilder()
	b.Spout("source", func() storm.Spout {
		s := operators.NewSource(src, cfg.MaxTags)
		s.SetFlight(cfg.Flight)
		return s
	}, 1)

	b.Bolt("partitioner", func() storm.Bolt {
		return operators.NewPartitioner(cfg)
	}, cfg.P).
		Fields("source", operators.TagsetKey).
		All("disseminator")

	b.Bolt("merger", func() storm.Bolt {
		p.merger = operators.NewMerger(cfg)
		return p.merger
	}, 1).
		Shuffle("partitioner").
		Shuffle("disseminator")

	b.Bolt("disseminator", func() storm.Bolt {
		p.disseminator = operators.NewDisseminator(cfg)
		return p.disseminator
	}, 1).
		Shuffle("source").
		All("merger")

	b.Bolt("calculator", func() storm.Bolt {
		return operators.NewCalculator(cfg)
	}, cfg.K).Direct("disseminator")

	// All Tracker tasks share the one thread-safe Tracker instance (shard
	// locks, atomics, period registry — the same pattern Trend uses with
	// the shared trend.Stream), wired fields-grouped on the tagset's fold
	// so per-tagset arrival order is preserved for CN-upgrade dedup and
	// StreamTrend emission. Calculators split each period flush into
	// per-task sub-batches by that fold (CoeffBatch.Route).
	b.Bolt("tracker", func() storm.Bolt {
		if p.tracker == nil {
			p.tracker = operators.NewTrackerWith(cfg.TrackerShards, cfg.TrackerTopK, cfg.EvictedPairs)
			p.tracker.SetRetention(cfg.KeepPeriods)
			p.tracker.SetStages(cfg.Stages)
			p.tracker.SetFlight(cfg.Flight)
			if cfg.Trend {
				p.tracker.EnableTrendEmit()
			}
			if p.arch != nil {
				p.tracker.SetArchive(p.arch)
				p.tracker.SetPeriodHook(p.onPeriodOpen)
			}
		}
		return p.tracker
	}, cfg.TrackerTasks).Fields("calculator", operators.CoeffKey)

	if cfg.Trend {
		det, err := trend.NewStream(cfg.TrendStreamConfig())
		if err != nil {
			return nil, err
		}
		p.trends = det
		if p.arch != nil {
			det.SetArchive(p.arch)
		}
		// One Trend task: the detector's CN-upgrade correction needs each
		// tagset's reports in arrival order. Every report of a tagset is
		// accepted by the one Tracker task that owns it (CoeffKey), which
		// emits its TrendBatches in order into this task's one mailbox, so
		// that order holds whatever the Tracker's parallelism.
		b.Bolt("trend", func() storm.Bolt {
			tb := operators.NewTrend(det)
			tb.SetFlight(cfg.Flight)
			return tb
		}, 1).Shuffle("tracker")
	}

	topo, err := b.Build()
	if err != nil {
		return nil, err
	}
	if cfg.SpoutPending > 0 {
		topo.SetMaxSpoutPending(cfg.SpoutPending)
	}
	if cfg.Flight != nil {
		// Every spout park increments the storm counter; the flight event
		// is rate-limited to one per second so a saturated run does not
		// flood the ring with identical entries.
		var lastSat atomic.Int64
		rec := cfg.Flight
		topo.SetThrottleHook(func() {
			now := telemetry.Now()
			last := lastSat.Load()
			if now-last >= int64(time.Second) && lastSat.CompareAndSwap(last, now) {
				rec.RecordEvent(flight.EventThrottleSaturated,
					fmt.Sprintf("spout parked at max-spout-pending=%d", topo.MaxSpoutPending()))
			}
		})
	}
	p.topo = topo

	// The compactor maintains the archive's compacted tier in the
	// background. It needs a seal watermark — periods at or below the
	// retention pruning floor can never be appended to again — so it only
	// runs when retention is on; an unbounded-retention pipeline never
	// seals a period for good.
	if p.arch != nil && cfg.KeepPeriods > 0 {
		p.compactor = archive.NewCompactor(cfg.ArchiveDir, archive.CompactorConfig{
			BudgetBytes: cfg.ArchiveBudgetBytes,
			SafeBelow:   p.archiveSafeBelow,
		})
		p.compactor.SetDurationHist(p.compactHist)
		if cfg.Flight != nil {
			rec := cfg.Flight
			var prev archive.CompactorStats
			var prevMu sync.Mutex
			p.compactor.SetPassHook(func(st archive.CompactorStats, err error) {
				prevMu.Lock()
				compacted := st.Compactions - prev.Compactions
				aged := st.AgedOutPeriods - prev.AgedOutPeriods
				prev = st
				prevMu.Unlock()
				if err != nil {
					rec.RecordEvent(flight.EventArchiveError, "compactor pass: "+err.Error())
					return
				}
				if compacted > 0 || aged > 0 {
					rec.RecordEvent(flight.EventCompaction, fmt.Sprintf(
						"pass wrote %d compacted files, aged out %d periods, dir=%dB",
						compacted, aged, st.DirBytes))
				}
			})
		}
		p.compactor.Start()
	}
	return p, nil
}

// archiveSafeBelow is the compactor's seal watermark: the newest period
// that neither the Tracker nor the trend detector will ever append to
// again (both prune independently, so the safe point is the older of the
// two floors).
func (p *Pipeline) archiveSafeBelow() int64 {
	floor := p.tracker.PruneFloor()
	if p.trends != nil {
		if tf := p.trends.PruneFloor(); tf < floor {
			floor = tf
		}
	}
	return floor
}

// Result summarises one pipeline run.
type Result struct {
	// Stats holds the run's final statistics: Communication (Figure 3),
	// LoadGini (Figure 4), the repartition requests split by trigger cause
	// (Figure 6), and every structural counter a Snapshot carries.
	Stats

	// Dissem is the Disseminator's full statistics, with the time series
	// of Figures 8 and 9.
	Dissem *operators.DissemStats

	// Tracker grants access to per-period reports; Storm to raw dataflow
	// counters.
	Tracker *operators.Tracker
	Storm   *storm.Stats
}

// Coefficients returns the Tracker's deduplicated Jaccard reports across
// all retained reporting periods, period by period. It gathers, copies and
// sorts them on every call (Tracker.All) — a drain that nobody asks pays
// nothing for it.
func (r *Result) Coefficients() []jaccard.Coefficient { return r.Tracker.All() }

// Run executes the pipeline on the deterministic sequential executor and
// gathers the results. The pipeline is single-use: Run and Start are
// mutually exclusive and may be invoked at most once in total. While a run
// is in progress, Snapshot (from another goroutine) exposes the live
// state; after Run returns, the Result carries the final totals.
func (p *Pipeline) Run() *Result {
	st := p.topo.RunSequential()
	return p.collect(st)
}

// collect is the one drain point of Run and Handle.Wait.
func (p *Pipeline) collect(st *storm.Stats) *Result {
	// The stream has drained: decide the traces of the last windows, which
	// no later document will rotate out, write the end-of-run checkpoint and
	// close the segment files (no-ops without Config.Flight and
	// Config.ArchiveDir).
	p.cfg.Flight.FlushAll()
	p.finishArchive()
	return &Result{
		Stats:   p.liveStats(),
		Dissem:  &p.disseminator.Stats,
		Tracker: p.tracker,
		Storm:   st,
	}
}

// Archiving reports whether the durability subsystem is active.
func (p *Pipeline) Archiving() bool { return p.arch != nil }

// LastCheckpointAge returns how long ago the last checkpoint write
// completed; ok is false if none has completed yet.
func (p *Pipeline) LastCheckpointAge() (age time.Duration, ok bool) {
	stamp := p.lastCkptNS.Load()
	if stamp == 0 {
		return 0, false
	}
	return telemetry.Since(stamp), true
}

// SpoutProgress reads two live storm counters: how many spouts are parked
// on the max-spout-pending cap right now (concurrent executor only), and how
// many tuples the Disseminator has received. A spout that stays parked
// while the second stands still is the signature of a wedged consumer.
func (p *Pipeline) SpoutProgress() (parked, dissemReceived int64) {
	st := p.topo.Stats()
	return st.SpoutsParked(), st.Received("disseminator")
}
