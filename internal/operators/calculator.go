package operators

import (
	"repro/internal/flight"
	"repro/internal/jaccard"
	"repro/internal/storm"
	"repro/internal/stream"
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
	// task, grouped by the shared routeHash, so fields grouping (CoeffKey)
	// keeps every tagset on one Tracker task. 1 outside a topology. route
	// is splitByRoute's per-coefficient scratch, reused across flushes.
	trackerTasks int
	route        []int32

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
// proportional to periods rather than pairs. The sub-batches are windows
// of the report's one array, handed over with it: the Calculator keeps no
// reference to a report it emitted.
func (c *Calculator) flush(out storm.Collector, ingest int64, trace uint64) {
	coeffs := c.table.Coefficients(1)
	period := int64(c.boundary / c.cfg.ReportEvery)
	switch {
	case len(coeffs) == 0:
	case c.trackerTasks <= 1:
		out.Emit(storm.Tuple{Stream: StreamCoeff, Values: []interface{}{
			CoeffBatch{Period: period, Coeffs: coeffs, Ingest: ingest, Trace: trace},
		}})
	default:
		for g, part := range c.splitByRoute(coeffs) {
			if len(part) == 0 {
				continue
			}
			out.Emit(storm.Tuple{Stream: StreamCoeff, Values: []interface{}{
				CoeffBatch{Period: period, Route: uint64(g), Coeffs: part, Ingest: ingest, Trace: trace},
			}})
		}
	}
	if len(coeffs) > 0 || c.table.Docs() > 0 {
		c.Reports++
	}
	c.table.Reset()
}

// splitByRoute groups a report in place into one part per Tracker task by
// routeHash % tasks, each tagset hashed once into c.route (groupByRoute).
func (c *Calculator) splitByRoute(coeffs []jaccard.Coefficient) [][]jaccard.Coefficient {
	c.route = resized(c.route, len(coeffs))
	for i := range coeffs {
		c.route[i] = int32(routeHashSet(coeffs[i].Tags) % uint64(c.trackerTasks))
	}
	return groupByRoute(coeffs, c.route, c.trackerTasks)
}

// alignUp returns the smallest multiple of step strictly greater than t.
func alignUp(t, step stream.Millis) stream.Millis {
	return (t/step + 1) * step
}
