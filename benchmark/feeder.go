package main

import (
	"sync/atomic"
	"time"

	"repro/benchmark/kit"
	"repro/internal/stream"
)

// phase releases documents up to (not including) index Upto to the spout.
// A positive Rate is an open loop: document i of the phase is due at Start
// + i/Rate and is never handed over early. Rate 0 is a closed loop: every
// document goes as soon as the spout asks for it and the period credit
// allows.
type phase struct {
	Upto  int
	Rate  float64
	Start time.Time
	// Measured marks the window's phase: only there are lateness, credit
	// waits and period closes recorded.
	Measured bool
}

// The period credit closes the loop. Documents have no reply, but periods
// do: their alerts. The first document of period q, the trigger that makes
// the Calculators flush q-1, is handed over only once an alert of period
// q-creditPeriods has arrived, i.e. once every Calculator has worked
// through the stream up to the end of that period. At most creditPeriods
// periods are then in flight and the backlog cannot grow: what the loop
// measures is the rate the whole pipeline sustains, reports included. On
// the spout's own throttle alone the spout takes documents about twice as
// fast as the Calculators drain them, and backlog, alert lag and memory
// measure the length of the run (0.9 GB and 10 s on the narrow stream, 1.4
// GB on the wide one).
const (
	creditPeriods = 2
	// firstAlertPeriod is the first period whose report raises alerts:
	// period 1 passes before the partitioning is installed, period 2 primes
	// the predictors.
	firstAlertPeriod = 3
	// creditTimeout is how long the feeder waits for a period's alerts
	// before it gives up and reports the run as failed.
	creditTimeout = 30 * time.Second
)

// feeder is the pipeline's document source. The spout's goroutine calls
// next; the harness releases the stream phase by phase and ends it by
// closing the phase channel, so the stream the program sees is exactly the
// generated one, cut where the harness says. What next records is read
// only after the run has drained (Handle.Done orders the two), so it needs
// no lock.
type feeder struct {
	docs   []stream.Document
	phases chan phase

	at   int
	cur  phase
	base int

	// alerted is the newest period an alert has arrived for; the event
	// subscriber advances it and then signals wake.
	alerted atomic.Int64
	wake    chan struct{}

	// closedAt[P] is when the trigger document of period P (the first
	// document of P+1, whose arrival makes the Calculators flush P) was
	// handed over during the measured phase.
	closedAt map[int64]time.Time
	// lateMS is how long after its due time each paced document went.
	lateMS []float64
	// creditWait is how long the closed loop held the spout back in the
	// measured phase; starved lists the periods whose alerts never came.
	creditWait time.Duration
	starved    []int64
}

func newFeeder(docs []stream.Document) *feeder {
	return &feeder{
		docs: docs,
		// One slot: the harness releases a phase and goes on to wait for it.
		phases:   make(chan phase, 1),
		wake:     make(chan struct{}, 1),
		closedAt: make(map[int64]time.Time),
	}
}

// release hands the next phase to the spout. Upto must not exceed the
// stream.
func (f *feeder) release(p phase) { f.phases <- p }

// end makes the stream end once the released phases are handed over.
func (f *feeder) end() { close(f.phases) }

// sawAlert is called by the event subscriber for every alert.
func (f *feeder) sawAlert(period int64) {
	if period > f.alerted.Load() {
		f.alerted.Store(period)
		select {
		case f.wake <- struct{}{}:
		default:
		}
	}
}

// awaitCredit blocks until an alert of period need has arrived.
func (f *feeder) awaitCredit(need int64) {
	if need < firstAlertPeriod || f.alerted.Load() >= need {
		return
	}
	t0 := time.Now()
	timeout := time.NewTimer(creditTimeout)
	defer timeout.Stop()
	for f.alerted.Load() < need {
		select {
		case <-f.wake:
		case <-timeout.C:
			f.starved = append(f.starved, need)
			return
		}
	}
	if f.cur.Measured {
		f.creditWait += time.Since(t0)
	}
}

// next is the core.DocumentSource.
func (f *feeder) next() (stream.Document, bool) {
	for f.at >= f.cur.Upto {
		p, ok := <-f.phases
		if !ok {
			return stream.Document{}, false
		}
		f.cur, f.base = p, f.at
	}
	d := f.docs[f.at]
	period, trigger := kit.PeriodOf(d), false
	if f.at > 0 {
		trigger = kit.PeriodOf(f.docs[f.at-1]) != period
	}
	var due time.Time
	if f.cur.Rate > 0 {
		due = f.cur.Start.Add(time.Duration(float64(f.at-f.base) / f.cur.Rate * float64(time.Second)))
		// Sleep-only pacing: the timer overshoots by a fraction of a
		// millisecond and the loop catches up with a short burst, which a
		// real feed would do too. Spinning here would charge a core to the
		// pipeline's CPU metric.
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
	} else if trigger {
		f.awaitCredit(period - creditPeriods)
	}
	if f.cur.Measured {
		now := time.Now()
		if f.cur.Rate > 0 {
			f.lateMS = append(f.lateMS, float64(now.Sub(due))/1e6)
		}
		if trigger {
			f.closedAt[period-1] = now
		}
	}
	f.at++
	return d, true
}
