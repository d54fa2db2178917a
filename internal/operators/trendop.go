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
// ingested. Its instances subscribe fields-grouped on the batch's Route
// (TrendKey) — the Tracker splits each batch by its tagsets' folds — so all
// reports of one tagset pass through the same task: per-tagset arrival
// order is preserved however many Trend tasks run, which is what the
// detector's upgrade-correction logic relies on. The detector itself is
// shard-locked, so the tasks feed it concurrently without coordination.
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

// Detector returns the shared streaming detector.
func (tb *Trend) Detector() *trend.Stream { return tb.det }

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

// TrendKey routes Tracker→Trend tuples for fields grouping: a TrendBatch
// carries its destination task index in Route (the Tracker grouped the
// coefficients by routeOf(fold) % tasks), so every report of one tagset
// reaches the same Trend task.
func TrendKey(t storm.Tuple) uint64 {
	return t.Values[0].(TrendBatch).Route
}
