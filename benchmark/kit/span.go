package kit

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own
// files around the call. Start and End are nanoseconds since the
// recorder's epoch. Parent is the id of the span that caused this one (0:
// a root); spans of one reporting period share Trace = the period id.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Spans is an in-memory span recorder, safe for concurrent use. A nil
// *Spans records nothing, so the untraced run pays one nil check per call
// site.
type Spans struct {
	epoch time.Time
	mu    sync.Mutex
	list  []Span
}

// NewSpans returns an empty recorder whose epoch is now.
func NewSpans() *Spans { return &Spans{epoch: time.Now()} }

// Add records a finished span and returns its id (0 on a nil recorder).
func (s *Spans) Add(name string, trace, parent int64, start, end time.Time) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	id := int64(len(s.list) + 1)
	s.list = append(s.list, Span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(s.epoch).Nanoseconds(), End: end.Sub(s.epoch).Nanoseconds(),
	})
	s.mu.Unlock()
	return id
}

// Open starts a span that will have children and returns its id; Close
// ends it. (Add is for spans whose end is known when they are recorded.)
func (s *Spans) Open(name string, trace, parent int64) int64 {
	if s == nil {
		return 0
	}
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := int64(len(s.list) + 1)
	s.list = append(s.list, Span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	return id
}

// Close ends a span started with Open.
func (s *Spans) Close(id int64) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	s.list[id-1].End = now
	s.mu.Unlock()
}

// Time runs fn inside a span and returns the span's id and duration.
func (s *Spans) Time(name string, trace, parent int64, fn func()) (int64, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return s.Add(name, trace, parent, start, end), end.Sub(start)
}

// List returns a copy of the recorded spans.
func (s *Spans) List() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Span(nil), s.list...)
}

// Append adds spans recorded elsewhere (the layer replay's), renumbering
// their ids past this recorder's own.
func (s *Spans) Append(other []Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	base := int64(len(s.list))
	for _, sp := range other {
		sp.ID += base
		if sp.Parent != 0 {
			sp.Parent += base
		}
		s.list = append(s.list, sp)
	}
}

// SelfTime is a span name's aggregate over a trace file.
type SelfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// SelfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its child spans cover (overlapping
// children are merged first, so concurrent children are not counted
// twice).
func SelfTimes(spans []Span) []SelfTime {
	children := make(map[int64][]Span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	agg := make(map[string]*SelfTime)
	for _, sp := range spans {
		covered := int64(0)
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		at := sp.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < at {
				lo = at
			}
			if hi > sp.End {
				hi = sp.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		a := agg[sp.Name]
		if a == nil {
			a = &SelfTime{Name: sp.Name}
			agg[sp.Name] = a
		}
		a.Count++
		a.TotalMS += float64(sp.End-sp.Start) / 1e6
		a.SelfMS += float64(sp.End-sp.Start-covered) / 1e6
	}
	out := make([]SelfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// TraceFile is the layout of trace-<workload>.json.
type TraceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Self     []SelfTime `json:"self_times"`
	Spans    []Span     `json:"spans"`
}

// WriteTrace writes the spans and their per-name self times to path.
func WriteTrace(path, workload string, seed int64, spans []Span) error {
	data, err := json.Marshal(TraceFile{Workload: workload, Seed: seed, Self: SelfTimes(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
