package operators

import (
	"sync"
	"sync/atomic"

	"repro/internal/flight"
	"repro/internal/jaccard"
	"repro/internal/storm"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/telemetry"
)

// Calculator counts the subsets of the notifications it receives and, at
// every reporting boundary (y time units, Section 6.2), computes the
// maximum possible number of Jaccard coefficients from its counters, emits
// them to the Tracker, and deletes the counters.
//
// Calculators are oblivious to the partitions: they infer the tagsets to
// track purely from the notifications (Section 6.2). Reporting boundaries
// are aligned to multiples of ReportEvery so that all Calculators report
// the same periods and the Tracker can deduplicate. Notifications arrive
// as NotifyBatch tuples and feed the counter table in batch order.
type Calculator struct {
	cfg   Config
	ctx   *storm.TaskContext
	table *jaccard.CounterTable

	boundary stream.Millis // exclusive end of the current period
	hasData  bool

	// trackerTasks is the Tracker's parallelism, read from the topology at
	// Prepare: flushes split their coefficients into one sub-batch per
	// task, grouped by the route hash the report carries, so fields
	// grouping (CoeffKey) keeps every tagset on one Tracker task. 1 outside
	// a topology. route is splitByRoute's per-coefficient scratch, reused
	// across flushes.
	trackerTasks int
	route        []int32

	// reports is the free list of the report buffers this Calculator's
	// flushes fill; the last reader of a report returns it here.
	reports reportList

	// Reports counts emitted reporting rounds; Observed counts received
	// notifications.
	Reports  int
	Observed int64
}

// NewCalculator returns a Calculator bolt.
func NewCalculator(cfg Config) *Calculator {
	return &Calculator{cfg: cfg, table: jaccard.NewCounterTable()}
}

// Prepare implements storm.Bolt.
func (c *Calculator) Prepare(ctx *storm.TaskContext) {
	c.ctx = ctx
	c.trackerTasks = len(ctx.TasksOf("tracker"))
	if c.trackerTasks < 1 {
		c.trackerTasks = 1
	}
}

// Execute implements storm.Bolt.
func (c *Calculator) Execute(t storm.Tuple, out storm.Collector) {
	for _, m := range t.Values[0].(NotifyBatch).Msgs {
		c.observe(m, out)
	}
}

func (c *Calculator) observe(msg NotifyMsg, out storm.Collector) {
	start := telemetry.Now()
	if !c.hasData {
		c.boundary = alignUp(msg.Time, c.cfg.ReportEvery)
		c.hasData = true
	}
	if msg.Time >= c.boundary {
		// Flush the finished (non-empty) period, then jump straight to the
		// period containing msg.Time: a sparse live stream or a replay with
		// a large timestamp gap must not pay one no-op flush per empty
		// period in between.
		c.flush(out, msg.Ingest, msg.Trace)
		c.boundary = alignUp(msg.Time, c.cfg.ReportEvery)
	}
	c.table.Observe(msg.Tags)
	c.Observed++
	if st := c.cfg.Stages; st != nil && msg.Ingest > 0 {
		st.DocCoefficient.Record(telemetry.Since(msg.Ingest))
	}
	if msg.Trace != 0 {
		c.cfg.Flight.Span(msg.Trace, flight.StageCalculate, start, telemetry.Now())
	}
}

// Cleanup flushes the final partial period.
func (c *Calculator) Cleanup(out storm.Collector) {
	if c.hasData && c.table.Docs() > 0 {
		c.flush(out, 0, 0)
	}
}

// flush reports the finished period as CoeffBatch tuples: with a single
// Tracker task, one emission and one mailbox delivery per flush, however
// many coefficients the period produced; with Tracker parallelism > 1, one
// sub-batch per involved Tracker task, each carrying the coefficients whose
// tagset-key hash routes to it (CoeffKey reads the Route field). Either
// way the hot path's dataflow counters and mailbox pressure stay
// proportional to periods rather than pairs. The report is written into a
// buffer from the Calculator's free list (reportBuf), with each
// coefficient's route hash beside it, and the sub-batches are windows of
// its arrays, each holding one reference to it: the buffer comes back when
// the last batch reading it lets go.
func (c *Calculator) flush(out storm.Collector, ingest int64, trace uint64) {
	buf := c.reports.get()
	buf.coeffs, buf.arena, buf.hashes = c.table.AppendCoefficients(buf.coeffs[:0], buf.arena[:0], buf.hashes[:0], 1)
	coeffs := buf.coeffs
	period := int64(c.boundary / c.cfg.ReportEvery)
	// The flush holds a reference of its own while it emits, so a batch
	// consumed before the next one is emitted cannot return the buffer.
	buf.refs.Store(1)
	switch {
	case len(coeffs) == 0:
	case c.trackerTasks <= 1:
		buf.retain()
		out.Emit(storm.Tuple{Stream: StreamCoeff, Values: []interface{}{
			CoeffBatch{Period: period, Coeffs: coeffs, Ingest: ingest, Trace: trace, hashes: buf.hashes, buf: buf},
		}})
	default:
		lo := 0
		for g, part := range c.splitByRoute(coeffs, buf.hashes) {
			if len(part) == 0 {
				continue
			}
			hi := lo + len(part)
			buf.retain()
			out.Emit(storm.Tuple{Stream: StreamCoeff, Values: []interface{}{
				CoeffBatch{Period: period, Route: uint64(g), Coeffs: part, Ingest: ingest, Trace: trace, hashes: buf.hashes[lo:hi:hi], buf: buf},
			}})
			lo = hi
		}
	}
	buf.release()
	if len(coeffs) > 0 || c.table.Docs() > 0 {
		c.Reports++
	}
	c.table.Reset()
}

// splitByRoute groups a report and its route hashes in place into one part
// per Tracker task by hash % tasks (groupByRoute).
func (c *Calculator) splitByRoute(coeffs []jaccard.Coefficient, hashes []uint64) [][]jaccard.Coefficient {
	c.route = resized(c.route, len(coeffs))
	for i, h := range hashes {
		c.route[i] = int32(h % uint64(c.trackerTasks))
	}
	return groupByRoute(coeffs, hashes, c.route, c.trackerTasks)
}

// alignUp returns the smallest multiple of step strictly greater than t.
func alignUp(t, step stream.Millis) stream.Millis {
	return (t/step + 1) * step
}

// reportBuf is one flush's report, lent to the batches that carry it: the
// coefficient array, the tag arena its coefficients' tags are windows of,
// each coefficient's route hash (routeHashSet of its tags, hashes[i] for
// coeffs[i]), and the number of batches still holding it. Each CoeffBatch
// of the flush holds one reference, and the Tracker takes one more for each
// TrendBatch it emits from it; every holder releases its own once done
// reading, and the last release returns the buffer to its Calculator's
// free list, whose next flush writes over it. A batch that is never
// consumed only costs the next flush a fresh buffer.
type reportBuf struct {
	coeffs []jaccard.Coefficient
	arena  []tagset.Tag
	hashes []uint64
	refs   atomic.Int32
	list   *reportList
}

// retain adds a holder, before buf is handed to one more batch. A nil
// buffer (a batch not built by a flush) holds nothing.
func (buf *reportBuf) retain() {
	if buf != nil {
		buf.refs.Add(1)
	}
}

// release drops a holder; the last one returns buf to its free list. A nil
// buffer releases nothing.
func (buf *reportBuf) release() {
	if buf != nil && buf.refs.Add(-1) == 0 {
		buf.list.put(buf)
	}
}

// reportList is a Calculator's free list of report buffers. Only the
// Calculator takes from it; the Tracker and Trend tasks that release a
// buffer last put it back.
type reportList struct {
	mu   sync.Mutex
	free []*reportBuf
}

// get takes a buffer off the list, or makes an empty one.
func (l *reportList) get() *reportBuf {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		buf := l.free[n-1]
		l.free = l.free[:n-1]
		return buf
	}
	return &reportBuf{list: l}
}

// put returns buf to the list. In a -race build it first poisons buf
// (poisonReport), so a reader that outlives its reference reads values no
// report holds.
func (l *reportList) put(buf *reportBuf) {
	if poisonReport != nil {
		poisonReport(buf)
	}
	l.mu.Lock()
	l.free = append(l.free, buf)
	l.mu.Unlock()
}

// poisonReport, set only in -race builds (report_race.go), overwrites a
// returned buffer before it can be reused.
var poisonReport func(*reportBuf)
