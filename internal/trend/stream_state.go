package trend

import (
	"repro/internal/tagset"
	"repro/internal/topselect"
)

// EventArchive receives the streaming detector's durable-log stream: every
// scored deviation as it happens, plus a seal when retention prunes a
// period. Implemented by archive.Writer. Appends run on the Observe path,
// so implementations must be cheap and thread-safe.
type EventArchive interface {
	AppendEvent(ev Event)
	SealPeriod(period int64)
}

// SetArchive attaches the durable-log sink. Call before the run starts.
func (s *Stream) SetArchive(a EventArchive) { s.archive = a }

// TrendPredictor is one tagset's predictor in a StreamState export.
type TrendPredictor struct {
	Tags        tagset.Set
	Expectation float64
	Base        float64
	Period      int64
	Seen        int
}

// PeriodTrendEvents is one period's scored events in a StreamState export,
// in table order: shard by shard, each shard's events in the order they
// were first scored (topselect.Table slot order).
type PeriodTrendEvents struct {
	Period int64
	Events []Event
}

// StreamState is the streaming detector's restartable state, produced by
// ExportState and consumed by ImportState on a fresh Stream. Like
// operators.TrackerState it carries only sealed information: an export cut
// at beforePeriod holds no trace of any period at or beyond the cut —
// predictors that already advanced into the cut period are rolled back one
// step (their base is exactly the pre-cut expectation), so replaying the
// stream from the cut's first document re-derives the uninterrupted state.
type StreamState struct {
	Predictors []TrendPredictor    // sorted by tagset key
	Periods    []PeriodTrendEvents // ascending period order

	Floor  int64
	Pruned int64
	Latest int64 // math.MinInt64 before the first scored event

	Scored     int64
	Filtered   int64
	OutOfOrder int64
	Late       int64
	Published  int64
	Dropped    int64
}

// ExportState copies the detector's restartable state restricted to periods
// strictly before beforePeriod (pass math.MaxInt64 for everything): ExportCut
// with a fixed cut and no reuse.
func (s *Stream) ExportState(beforePeriod int64) StreamState {
	return s.ExportCut(func() int64 { return beforePeriod }, nil)
}

// ExportCut pauses the detector's intake (ObserveBatch and Observe wait),
// reads the cut with readCut, copies the state strictly before the cut, and
// resumes. A checkpoint reads the Tracker's newest period as its cut inside
// readCut. The Tracker registers a period before it emits any of its
// reports, so while the intake is paused the detector holds no observation
// of a period after the cut, and rolling one period back is exact: a
// predictor whose newest observed period is the cut is exported as its
// pre-cut self — expectation back to the base it scored the cut against,
// period one below the cut, seen decremented — and the next replayed
// observation re-advances it identically; a predictor established in the
// cut period is dropped (the replay re-establishes it).
//
// The event periods are reused like the Tracker's
// (operators.Tracker.ExportStateReusing): a period for which
// reused(period, writes) reports true, writes being the sum over shards of
// its tables' write counts, is exported with no events. reused may be nil.
func (s *Stream) ExportCut(readCut func() int64, reused func(period int64, writes uint64) bool) StreamState {
	s.intake.Lock()
	beforePeriod := readCut()
	st := StreamState{
		Scored:     s.scored.Load(),
		Filtered:   s.filtered.Load(),
		OutOfOrder: s.outOfOrder.Load(),
		Late:       s.late.Load(),
		Published:  s.published.Load(),
		Dropped:    s.dropped.Load(),
	}
	rs := s.reg.View(beforePeriod, nil)
	st.Floor, st.Pruned = rs.Floor, rs.Pruned

	st.Latest = s.latest.Load()
	if st.Latest >= beforePeriod {
		// The newest scored period is being cut; the replay will re-raise
		// the sentinel as it re-scores the cut period.
		st.Latest = beforePeriod - 1
	}

	// The predictors' tags are decoded from their keys into one arena, sized
	// by a first pass (the paused intake keeps the predictors still); each
	// predictor's window into it is capped.
	var n, tags int
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.preds)
		for key := range sh.preds {
			tags += len(key) / 4
		}
		sh.mu.Unlock()
	}
	st.Predictors = make([]TrendPredictor, 0, n)
	arena := make(tagset.Set, 0, tags)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for key, p := range sh.preds {
			tp := TrendPredictor{Expectation: p.exp, Base: p.base, Period: p.period, Seen: p.seen}
			switch {
			case p.period < beforePeriod:
			case p.seen <= 1:
				continue // established in the cut period: nothing to keep
			default:
				tp.Expectation, tp.Period, tp.Seen = p.base, beforePeriod-1, p.seen-1
			}
			start := len(arena)
			arena = key.AppendSet(arena)
			tp.Tags = arena[start:len(arena):len(arena)]
			st.Predictors = append(st.Predictors, tp)
		}
		sh.mu.Unlock()
	}

	for _, p := range rs.Periods {
		pe := PeriodTrendEvents{Period: p}
		if reused == nil || !reused(p, s.writes(p)) {
			for _, sh := range s.shards {
				sh.mu.Lock()
				pe.Events = appendEvents(pe.Events, sh.periods[p])
				sh.mu.Unlock()
			}
		}
		st.Periods = append(st.Periods, pe)
	}
	s.intake.Unlock()
	tagset.SortBy(st.Predictors, func(p TrendPredictor) tagset.Set { return p.Tags })
	return st
}

// writes sums one period's table write counts over the shards.
func (s *Stream) writes(period int64) (n uint64) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.periods[period].Writes()
		sh.mu.Unlock()
	}
	return n
}

// ImportState loads an exported state into a freshly constructed Stream.
// It must run before the pipeline starts; the per-period top-trends heaps
// are rebuilt as the events are re-recorded.
func (s *Stream) ImportState(st StreamState) {
	rs := topselect.State{Floor: st.Floor, Pruned: st.Pruned}
	for _, pe := range st.Periods {
		rs.Periods = append(rs.Periods, pe.Period)
	}
	s.reg.Import(rs)
	s.latest.Store(st.Latest)
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.floor = st.Floor
		sh.mu.Unlock()
	}
	for _, p := range st.Predictors {
		key := p.Tags.Key()
		sh := s.shardOf(key)
		sh.mu.Lock()
		sh.preds[key] = &streamPredictor{
			base: p.Base, exp: p.Expectation, period: p.Period, seen: p.Seen,
		}
		sh.mu.Unlock()
	}
	for _, pe := range st.Periods {
		for _, ev := range pe.Events {
			sh := s.shards[ev.Tags.KeyHash()&s.mask]
			sh.mu.Lock()
			sh.record(ev)
			sh.mu.Unlock()
		}
	}
	s.scored.Store(st.Scored)
	s.filtered.Store(st.Filtered)
	s.outOfOrder.Store(st.OutOfOrder)
	s.late.Store(st.Late)
	s.published.Store(st.Published)
	s.dropped.Store(st.Dropped)
}
