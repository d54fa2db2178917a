package operators

import (
	"fmt"
	"sync"

	"repro/internal/flight"
	"repro/internal/partition"
	"repro/internal/quality"
	"repro/internal/storm"
	"repro/internal/tagset"
	"repro/internal/telemetry"
)

// Cause classifies what triggered a repartition (Figure 6 splits the counts
// by cause).
type Cause int

// Repartition causes.
const (
	CauseNone          Cause = iota
	CauseCommunication       // avgCom' exceeded its bound
	CauseLoad                // maxLoad' exceeded its bound
	CauseBoth                // both exceeded in the same statistics batch
	CauseBootstrap           // the initial partitioning request
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseCommunication:
		return "communication"
	case CauseLoad:
		return "load"
	case CauseBoth:
		return "both"
	case CauseBootstrap:
		return "bootstrap"
	}
	return "none"
}

// DissemStats is the Disseminator's cumulative account of the run — the
// quantities behind Figures 3, 4, 6, 8 and 9.
type DissemStats struct {
	Docs            int64 // parsed documents seen
	BeforePartition int64 // documents seen before the first partitions
	NotifiedDocs    int64 // documents that produced >= 1 notification
	Notifications   int64 // total notifications sent
	UncoveredDocs   int64 // documents whose tagset no Calculator fully held
	PerCalculator   []int64

	Repartitions   int // requests after bootstrap
	CauseComm      int
	CauseLoad      int
	CauseBoth      int
	AdditionsAsked int

	// CommSeries records the batch average communication over processed
	// documents; LoadSeries records, per batch, the per-Calculator shares
	// (sorted descending). Marks on CommSeries are repartition positions.
	CommSeries quality.Series
	LoadSeries []LoadSample
}

// LoadSample is one Figure-9 sample: sorted per-Calculator load shares at a
// document-count position.
type LoadSample struct {
	X      float64
	Shares []float64
}

// Communication returns the run's average notifications per notified
// document — the paper's Communication metric (Section 8.2.1).
func (s *DissemStats) Communication() float64 {
	if s.NotifiedDocs == 0 {
		return 0
	}
	return float64(s.Notifications) / float64(s.NotifiedDocs)
}

// LoadGini returns the Gini coefficient of cumulative per-Calculator
// notifications — the paper's Processing Load metric (Section 8.2.2).
func (s *DissemStats) LoadGini() float64 { return quality.GiniInts(s.PerCalculator) }

// Disseminator forwards parsed documents to the Calculators holding their
// tags (via an inverted tag index and direct grouping), requests Single
// Additions for repeatedly-uncovered tagsets, and monitors partition
// quality, requesting repartitions when communication or load degrade
// beyond thr relative to the reference values the Merger supplied
// (Sections 3.3, 7.1 and 7.2).
//
// Execute takes an internal mutex, so SnapshotStats and Epoch provide a
// consistent live view from other goroutines while a concurrent run is
// streaming. Direct access to the Stats field remains race-free only once
// the run has drained (the batch/figure path).
type Disseminator struct {
	cfg Config
	ctx *storm.TaskContext
	mu  sync.Mutex

	index     map[tagset.Tag][]int // tag -> calculator indices (sorted, unique)
	calcTasks []storm.TaskID
	epoch     int
	awaiting  bool // a repartition was requested and not yet installed

	refAvgCom  float64
	refMaxLoad float64
	hasRef     bool

	batchDocs  int64
	batchMsgs  int64
	batchCalc  []int64
	uncovered  map[tagset.Key]int
	pendingAdd map[tagset.Key]bool

	// notifyBuf buffers per-Calculator notifications: they ship as one
	// NotifyBatch tuple per Calculator once cfg.NotifyBatch documents were
	// notified (0: after every notified document), plus on partition
	// install and Cleanup. bufDocs counts notified documents since the last
	// flush. Per-Calculator notification order is preserved.
	notifyBuf [][]NotifyMsg
	bufDocs   int

	// scratch buffers reused across documents.
	calcSeen map[int]int

	Stats DissemStats
}

// SnapshotStats returns a copy of the Disseminator's counters taken under
// the bolt's lock — the live view behind Pipeline.Snapshot. The copy
// shares nothing with the bolt, so callers may hold it indefinitely.
//
// The figure time series (CommSeries, LoadSeries) are deliberately left
// out: they grow with the run, and copying them under the lock on every
// snapshot would increasingly stall the document hot path. Read them
// after the run via Result.Dissem.
func (d *Disseminator) SnapshotStats() DissemStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.Stats
	s.PerCalculator = append([]int64(nil), d.Stats.PerCalculator...)
	s.CommSeries = quality.Series{}
	s.LoadSeries = nil
	return s
}

// Epoch returns the epoch of the currently installed partitions (0 before
// the first install) and whether a repartition request is outstanding.
func (d *Disseminator) Epoch() (epoch int, awaiting bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch, d.awaiting
}

// QualityRefs returns the reference quality values the Disseminator
// monitors against (ok=false before the first install) — checkpointed so
// a restored Disseminator resumes degradation monitoring with the same
// baseline.
func (d *Disseminator) QualityRefs() (avgCom, maxLoad float64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.refAvgCom, d.refMaxLoad, d.hasRef
}

// RestorePartitions rebuilds the inverted index from checkpointed
// partitions and adopts the checkpointed epoch and reference quality — the
// recovery path. Call before the run starts: with a non-zero epoch
// installed, the restarted Disseminator routes documents immediately
// instead of re-entering bootstrap. Monitoring state that is not
// checkpointed (batch statistics, uncovered-tagset counters) restarts
// empty.
func (d *Disseminator) RestorePartitions(epoch int, parts []partition.Partition, avgCom, maxLoad float64, hasRef bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.index = make(map[tagset.Tag][]int, len(d.index))
	for i, p := range parts {
		for _, tg := range p.Tags {
			d.index[tg] = appendUnique(d.index[tg], i)
		}
	}
	d.epoch = epoch
	d.awaiting = false
	d.refAvgCom = avgCom
	d.refMaxLoad = maxLoad
	d.hasRef = hasRef
	d.uncovered = make(map[tagset.Key]int)
	d.pendingAdd = make(map[tagset.Key]bool)
}

// NewDisseminator returns a Disseminator bolt.
func NewDisseminator(cfg Config) *Disseminator {
	return &Disseminator{
		cfg:        cfg,
		index:      make(map[tagset.Tag][]int),
		uncovered:  make(map[tagset.Key]int),
		pendingAdd: make(map[tagset.Key]bool),
		calcSeen:   make(map[int]int),
	}
}

// Prepare implements storm.Bolt.
func (d *Disseminator) Prepare(ctx *storm.TaskContext) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ctx = ctx
	d.calcTasks = ctx.TasksOf("calculator")
	d.batchCalc = make([]int64, len(d.calcTasks))
	d.Stats.PerCalculator = make([]int64, len(d.calcTasks))
	d.notifyBuf = make([][]NotifyMsg, len(d.calcTasks))
}

// Execute implements storm.Bolt.
func (d *Disseminator) Execute(t storm.Tuple, out storm.Collector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch t.Stream {
	case StreamDoc:
		d.onDoc(t.Values[0].(DocMsg), out)
	case StreamPartitions:
		d.install(t.Values[0].(PartitionsMsg), out)
	case StreamAdditionRes:
		d.onAdditionResult(t.Values[0].(AdditionRes))
	}
}

// Cleanup flushes the buffered notifications so the Calculators see every
// routed document before their own final-period flush (the Disseminator is
// declared before the Calculators, and the executors drain each component's
// Cleanup emissions before moving on).
func (d *Disseminator) Cleanup(out storm.Collector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.flushNotify(out)
}

// flushNotify ships each Calculator's buffered notifications as one
// NotifyBatch tuple. Buffers are handed to the tuples (not reused): the
// consumer reads them from its mailbox concurrently.
func (d *Disseminator) flushNotify(out storm.Collector) {
	for c, msgs := range d.notifyBuf {
		if len(msgs) == 0 {
			continue
		}
		out.EmitDirect(d.calcTasks[c], storm.Tuple{Stream: StreamNotify, Values: []interface{}{
			NotifyBatch{Msgs: msgs},
		}})
		d.notifyBuf[c] = nil
	}
	d.bufDocs = 0
}

// install rebuilds the inverted index from freshly merged partitions and
// adopts the Merger's reference quality values. Buffered notifications are
// flushed first, so everything routed under the outgoing index is delivered
// before the new epoch's traffic.
func (d *Disseminator) install(msg PartitionsMsg, out storm.Collector) {
	d.flushNotify(out)
	d.index = make(map[tagset.Tag][]int, len(d.index))
	for i, p := range msg.Parts {
		for _, tg := range p.Tags {
			d.index[tg] = appendUnique(d.index[tg], i)
		}
	}
	d.epoch = msg.Epoch
	d.awaiting = false
	// The Merger's reference values are computed over the merged partials
	// (whole partitions treated as tagsets) — the quality "as computed
	// immediately after their creation" (Section 7.2). They are optimistic
	// for the set-cover algorithms (every merged pseudo-tagset is fully
	// covered by its own partition) and therefore trip repartitions
	// readily, matching the high repartition counts of Figure 6.
	d.refAvgCom = msg.Quality.AvgCom
	d.refMaxLoad = msg.Quality.MaxLoad
	d.hasRef = true
	d.resetBatch()
	d.uncovered = make(map[tagset.Key]int)
	d.pendingAdd = make(map[tagset.Key]bool)
}

// onAdditionResult extends the index with the added tagset's assignment.
func (d *Disseminator) onAdditionResult(msg AdditionRes) {
	for _, tg := range msg.Tags {
		d.index[tg] = appendUnique(d.index[tg], msg.Part)
	}
	k := msg.Tags.Key()
	delete(d.pendingAdd, k)
	delete(d.uncovered, k)
}

func appendUnique(s []int, v int) []int {
	for _, have := range s {
		if have == v {
			return s
		}
	}
	return append(s, v)
}

func (d *Disseminator) onDoc(msg DocMsg, out storm.Collector) {
	docStart := telemetry.Now()
	d.Stats.Docs++

	// Bootstrap: ask for the first partitions once a full window of data
	// has flowed into the Partitioners.
	if d.epoch == 0 && !d.awaiting && msg.Time >= d.cfg.WindowSpan {
		d.awaiting = true
		out.Emit(storm.Tuple{Stream: StreamRepartition, Values: []interface{}{
			RepartitionReq{Epoch: 1},
		}})
	}
	if len(d.index) == 0 {
		d.Stats.BeforePartition++
		return
	}

	// Route: collect, per involved Calculator, how many of the document's
	// tags it holds.
	for k := range d.calcSeen {
		delete(d.calcSeen, k)
	}
	for _, tg := range msg.Tags {
		for _, c := range d.index[tg] {
			d.calcSeen[c]++
		}
	}
	covered := false
	for c, n := range d.calcSeen {
		sub := msg.Tags
		if n < msg.Tags.Len() {
			sub = d.subsetFor(msg.Tags, c)
		} else {
			covered = true
		}
		d.notifyBuf[c] = append(d.notifyBuf[c], NotifyMsg{Time: msg.Time, Tags: sub, Ingest: msg.Ingest, Trace: msg.Trace})
		d.Stats.Notifications++
		d.batchMsgs++
		d.batchCalc[c]++
		d.Stats.PerCalculator[c]++
	}
	if len(d.calcSeen) > 0 {
		d.Stats.NotifiedDocs++
		d.batchDocs++
		if d.bufDocs++; d.bufDocs >= d.cfg.NotifyBatch {
			d.flushNotify(out)
		}
	}

	if !covered {
		d.Stats.UncoveredDocs++
		k := msg.Tags.Key()
		if !d.pendingAdd[k] {
			d.uncovered[k]++
			if d.uncovered[k] >= d.cfg.SN {
				d.pendingAdd[k] = true
				d.Stats.AdditionsAsked++
				out.Emit(storm.Tuple{Stream: StreamAddition, Values: []interface{}{
					AdditionReq{Tags: msg.Tags},
				}})
			}
		}
	}

	if msg.Trace != 0 {
		d.cfg.Flight.Span(msg.Trace, flight.StageDisseminate, docStart, telemetry.Now())
	}

	if d.batchDocs >= int64(d.cfg.StatsEvery) {
		d.evaluateBatch(out)
	}
}

// subsetFor returns the tags of s assigned to calculator c.
func (d *Disseminator) subsetFor(s tagset.Set, c int) tagset.Set {
	sub := make(tagset.Set, 0, s.Len())
	for _, tg := range s {
		for _, have := range d.index[tg] {
			if have == c {
				sub = append(sub, tg)
				break
			}
		}
	}
	return sub
}

// evaluateBatch computes the batch quality statistics, records the time
// series, and triggers a repartition when either statistic degraded beyond
// (1+thr) of its reference (Section 7.2).
func (d *Disseminator) evaluateBatch(out storm.Collector) {
	avgCom := float64(d.batchMsgs) / float64(d.batchDocs)
	maxLoad := quality.MaxShareInts(d.batchCalc)
	x := float64(d.Stats.Docs)
	if !d.cfg.NoSeries {
		d.Stats.CommSeries.Record(x, avgCom)
		shares := make([]float64, len(d.batchCalc))
		var total int64
		for _, c := range d.batchCalc {
			total += c
		}
		if total > 0 {
			for i, c := range d.batchCalc {
				shares[i] = float64(c) / float64(total)
			}
		}
		sortDesc(shares)
		d.Stats.LoadSeries = append(d.Stats.LoadSeries, LoadSample{X: x, Shares: shares})
	}

	if d.hasRef && !d.awaiting {
		commBad := avgCom > d.refAvgCom*(1+d.cfg.Thr)
		loadBad := maxLoad > d.refMaxLoad*(1+d.cfg.Thr)
		if commBad || loadBad {
			cause := CauseLoad
			switch {
			case commBad && loadBad:
				d.Stats.CauseBoth++
				cause = CauseBoth
			case commBad:
				d.Stats.CauseComm++
				cause = CauseCommunication
			default:
				d.Stats.CauseLoad++
			}
			d.Stats.Repartitions++
			d.cfg.Flight.RecordEvent(flight.EventRepartition, fmt.Sprintf(
				"cause=%s epoch=%d avgCom=%.2f/%.2f maxLoad=%.2f/%.2f",
				cause, d.epoch+1, avgCom, d.refAvgCom, maxLoad, d.refMaxLoad))
			if !d.cfg.NoSeries {
				d.Stats.CommSeries.Mark(x)
			}
			d.awaiting = true
			out.Emit(storm.Tuple{Stream: StreamRepartition, Values: []interface{}{
				RepartitionReq{Epoch: d.epoch + 1},
			}})
		}
	}
	d.resetBatch()
}

func (d *Disseminator) resetBatch() {
	d.batchDocs = 0
	d.batchMsgs = 0
	for i := range d.batchCalc {
		d.batchCalc[i] = 0
	}
}

func sortDesc(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
