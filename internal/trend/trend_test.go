package trend

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/tagset"
)

// The batch Detector is the oracle of the streaming one: it scores whole,
// deduplicated per-period reports, and TestStreamMatchesBatchDetector holds
// the Stream fed one arrival at a time to it.

// Config tunes the batch detector.
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

func coeff(j float64, cn int64, tags ...tagset.Tag) jaccard.Coefficient {
	return jaccard.Coefficient{Tags: tagset.New(tags...), J: j, CN: cn}
}

func mustDetector(t *testing.T, cfg Config) *Detector {
	t.Helper()
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Alpha: 0, MinSupport: 1},
		{Alpha: 1.5, MinSupport: 1},
		{Alpha: 0.5, MinSupport: 0},
		{Alpha: 0.5, MinSupport: 1, MaxTracked: -1},
	}
	for i, cfg := range bad {
		if _, err := NewDetector(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewDetector(DefaultConfig()); err != nil {
		t.Error(err)
	}
}

func TestFirstSightingEstablishesPredictor(t *testing.T) {
	d := mustDetector(t, DefaultConfig())
	events := d.Feed(1, []jaccard.Coefficient{coeff(0.5, 10, 1, 2)})
	if len(events) != 0 {
		t.Fatalf("first sighting produced events: %v", events)
	}
	if d.Tracked() != 1 {
		t.Errorf("Tracked = %d", d.Tracked())
	}
}

func TestDeviationScoring(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.5
	d := mustDetector(t, cfg)
	d.Feed(1, []jaccard.Coefficient{coeff(0.2, 10, 1, 2)})
	events := d.Feed(2, []jaccard.Coefficient{coeff(0.8, 12, 1, 2)})
	if len(events) != 1 {
		t.Fatalf("events = %v", events)
	}
	e := events[0]
	if !e.Rising || e.Predicted != 0.2 || e.Observed != 0.8 {
		t.Errorf("event = %+v", e)
	}
	if e.Score < 0.59 || e.Score > 0.61 {
		t.Errorf("score = %g, want 0.6", e.Score)
	}
	// Expectation updated: 0.5*0.8 + 0.5*0.2 = 0.5; a repeat at 0.5 scores 0.
	events = d.Feed(3, []jaccard.Coefficient{coeff(0.5, 12, 1, 2)})
	if len(events) != 1 || events[0].Score > 1e-9 {
		t.Errorf("post-update events = %v", events)
	}
}

func TestFallingTrend(t *testing.T) {
	d := mustDetector(t, DefaultConfig())
	d.Feed(1, []jaccard.Coefficient{coeff(0.9, 10, 1, 2)})
	events := d.Feed(2, []jaccard.Coefficient{coeff(0.1, 10, 1, 2)})
	if len(events) != 1 || events[0].Rising {
		t.Errorf("falling trend misreported: %v", events)
	}
}

func TestMinSupportFilter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinSupport = 10
	d := mustDetector(t, cfg)
	d.Feed(1, []jaccard.Coefficient{coeff(0.2, 3, 1, 2)})
	if d.Tracked() != 0 {
		t.Error("low-support coefficient tracked")
	}
}

func TestEventsSortedByScore(t *testing.T) {
	d := mustDetector(t, DefaultConfig())
	d.Feed(1, []jaccard.Coefficient{
		coeff(0.5, 10, 1, 2),
		coeff(0.5, 10, 3, 4),
	})
	events := d.Feed(2, []jaccard.Coefficient{
		coeff(0.6, 10, 1, 2), // score 0.1
		coeff(0.9, 10, 3, 4), // score 0.4
	})
	if len(events) != 2 || events[0].Score < events[1].Score {
		t.Errorf("not sorted: %v", events)
	}
	top := TopK(events, 1)
	if len(top) != 1 || !top[0].Tags.Equal(tagset.New(3, 4)) {
		t.Errorf("TopK = %v", top)
	}
	if got := TopK(events, 10); len(got) != 2 {
		t.Errorf("TopK over-length = %v", got)
	}
}

func TestEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxTracked = 3
	d := mustDetector(t, cfg)
	for i := int64(0); i < 6; i++ {
		d.Feed(i, []jaccard.Coefficient{coeff(0.5, 10, tagset.Tag(2*i), tagset.Tag(2*i+1))})
	}
	if d.Tracked() != 3 {
		t.Errorf("Tracked = %d, want 3", d.Tracked())
	}
	// The most recent survives; re-reporting it scores (predictor kept).
	events := d.Feed(7, []jaccard.Coefficient{coeff(0.9, 10, 10, 11)})
	if len(events) != 1 {
		t.Errorf("recent predictor evicted: %v", events)
	}
}
