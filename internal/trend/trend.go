// Package trend implements the application layer the paper positions its
// system under (Section 2): enBlogue-style emergent-topic detection
// [Alvanaki et al., EDBT 2012], where the magnitude of a trend is the
// prediction error of a tagset's correlation. The Tracker's per-period
// Jaccard reports are the input; a Detector maintains a smoothed
// expectation per tagset and scores each new report by its deviation.
package trend

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/jaccard"
	"repro/internal/tagset"
)

// Config tunes the detector.
type Config struct {
	// Alpha is the exponential-smoothing factor of the per-tagset
	// predictor: expectation ← alpha*observed + (1-alpha)*expectation.
	Alpha float64
	// MinSupport drops reports with a smaller intersection counter, the
	// guard against spam and typos the paper applies to Single Additions.
	MinSupport int64
	// MaxTracked bounds the number of tagsets with live predictors; the
	// least-recently-reported are evicted beyond it. Zero means unbounded.
	MaxTracked int
}

// DefaultConfig returns a moderate smoothing configuration.
func DefaultConfig() Config {
	return Config{Alpha: 0.4, MinSupport: 5, MaxTracked: 1 << 18}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.Alpha <= 0 || c.Alpha > 1:
		return fmt.Errorf("trend: alpha = %g", c.Alpha)
	case c.MinSupport < 1:
		return fmt.Errorf("trend: minSupport = %d", c.MinSupport)
	case c.MaxTracked < 0:
		return fmt.Errorf("trend: maxTracked = %d", c.MaxTracked)
	}
	return nil
}

// Event is one scored deviation: a tagset whose observed correlation moved
// away from its prediction.
type Event struct {
	Tags      tagset.Set
	Period    int64
	Predicted float64
	Observed  float64
	Score     float64 // |observed - predicted|, the prediction error
	Rising    bool    // observed > predicted
	CN        int64
}

// Detector consumes per-period coefficient reports and emits scored events.
type Detector struct {
	cfg   Config
	state map[tagset.Key]*predictor
}

type predictor struct {
	expectation float64
	seen        int
	lastPeriod  int64
}

// NewDetector returns a detector, validating the configuration.
func NewDetector(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, state: make(map[tagset.Key]*predictor)}, nil
}

// Tracked reports the number of live predictors.
func (d *Detector) Tracked() int { return len(d.state) }

// Feed scores one period's coefficient report and updates the predictors.
// Events are returned sorted by descending score. Tagsets reported for the
// first time establish a predictor without emitting an event (there is no
// expectation to deviate from yet).
func (d *Detector) Feed(period int64, report []jaccard.Coefficient) []Event {
	var events []Event
	for _, c := range report {
		if c.CN < d.cfg.MinSupport {
			continue
		}
		k := c.Tags.Key()
		p := d.state[k]
		if p == nil {
			d.state[k] = &predictor{expectation: c.J, seen: 1, lastPeriod: period}
			continue
		}
		score := c.J - p.expectation
		rising := score > 0
		if score < 0 {
			score = -score
		}
		events = append(events, Event{
			Tags:      c.Tags,
			Period:    period,
			Predicted: p.expectation,
			Observed:  c.J,
			Score:     score,
			Rising:    rising,
			CN:        c.CN,
		})
		p.expectation = d.cfg.Alpha*c.J + (1-d.cfg.Alpha)*p.expectation
		p.seen++
		p.lastPeriod = period
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].Score != events[j].Score {
			return events[i].Score > events[j].Score
		}
		return tagset.Compare(events[i].Tags, events[j].Tags) < 0
	})
	d.evict(period)
	return events
}

// evict drops the stalest predictors beyond MaxTracked: the oldest last
// period first, ties broken by key, whatever the map order.
func (d *Detector) evict(now int64) {
	if d.cfg.MaxTracked <= 0 || len(d.state) <= d.cfg.MaxTracked {
		return
	}
	type entry struct {
		k    tagset.Key
		last int64
	}
	all := make([]entry, 0, len(d.state))
	for k, p := range d.state {
		all = append(all, entry{k, p.lastPeriod})
	}
	slices.SortFunc(all, func(a, b entry) int { return cmp.Or(cmp.Compare(a.last, b.last), cmp.Compare(a.k, b.k)) })
	for _, e := range all[:len(d.state)-d.cfg.MaxTracked] {
		delete(d.state, e.k)
	}
}

// TopK returns the k highest-scoring events of a slice (helper for
// presentation layers).
func TopK(events []Event, k int) []Event {
	if k >= len(events) {
		return events
	}
	return events[:k]
}
