package operators

import (
	"sync/atomic"

	"repro/internal/flight"
	"repro/internal/storm"
	"repro/internal/telemetry"
	"repro/internal/trend"
)

// Trend is the streaming trend-detection operator: the bolt downstream of
// the Tracker that feeds the shared trend.Stream detector with every
// accepted coefficient report, one TrendBatch per batch the Tracker
// ingested. It runs as one task: the detector's upgrade correction needs
// each tagset's reports in arrival order, and the Tracker task that owns a
// tagset emits its batches into the one Trend mailbox in that order.
type Trend struct {
	det    *trend.Stream
	flight *flight.Recorder

	// Observed counts the reports this instance fed to the detector (read
	// mid-run by tests and snapshots).
	Observed atomic.Int64
}

// NewTrend returns a Trend bolt feeding det.
func NewTrend(det *trend.Stream) *Trend { return &Trend{det: det} }

// SetFlight wires the flight recorder: a traced batch records one trend
// span. Call before the run starts.
func (tb *Trend) SetFlight(rec *flight.Recorder) { tb.flight = rec }

// Prepare implements storm.Bolt.
func (tb *Trend) Prepare(*storm.TaskContext) {}

// Execute implements storm.Bolt.
func (tb *Trend) Execute(t storm.Tuple, _ storm.Collector) {
	msg := t.Values[0].(TrendBatch)
	start := telemetry.Now()
	tb.det.ObserveBatch(msg.Period, msg.Coeffs)
	tb.Observed.Add(int64(len(msg.Coeffs)))
	msg.buf.release()
	if msg.Trace != 0 {
		tb.flight.Span(msg.Trace, flight.StageTrend, start, telemetry.Now())
	}
}
