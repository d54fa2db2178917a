// Package telemetry is the pipeline-wide instrumentation layer: a
// zero-dependency metrics registry (atomic counters, callback gauges, and
// concurrent log-bucketed latency histograms) with Prometheus text-format
// exposition (text/plain; version=0.0.4) and a matching parser for tests
// and cmd/promcheck.
//
// Naming convention: tagcorr_<subsystem>_<name>_<unit>, e.g.
// tagcorr_tracker_heap_entries or tagcorr_stage_doc_coefficient_seconds.
// Registration happens once at wiring time and panics on programmer error
// (bad name, kind mismatch, duplicate label set); recording and scraping
// are lock-free on the hot path and never block each other.
package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// processStart anchors the monotonic ingest clock: Now() is nanoseconds
// since process start on the monotonic clock, cheap enough to stamp on
// every document and immune to wall-clock steps.
var processStart = time.Now()

// Now returns monotonic nanoseconds since process start. Document ingest
// times are stamped with it; stage latencies are Now()-stamp.
func Now() int64 { return int64(time.Since(processStart)) }

// Since returns the elapsed duration from a stamp taken with Now.
func Since(stamp int64) time.Duration { return time.Duration(Now() - stamp) }

// Wall converts a stamp taken with Now back to an approximate wall-clock
// time (exact up to wall-clock steps since process start). Flight-recorder
// dumps use it so operators can line events up with external logs.
func Wall(stamp int64) time.Time { return processStart.Add(time.Duration(stamp)) }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a concurrent log-bucketed latency histogram: geometric
// buckets (ratio 1.2) from 1µs to ~60s give bounded memory and lock-free
// recording at ≤20% quantile resolution — plenty for p50/p95/p99 on
// request- and stage-scale latencies. Recording races only on atomics, so
// one Histogram is shared by every goroutine touching a stage.
type Histogram struct {
	counts []atomic.Int64
	count  atomic.Int64
	sumNS  atomic.Int64
	maxNS  atomic.Int64
}

// bounds holds the bucket upper bounds in nanoseconds, ascending.
var bounds = func() []int64 {
	const (
		start = int64(time.Microsecond)
		ratio = 1.2
		limit = int64(60 * time.Second)
	)
	var b []int64
	f := float64(start)
	for int64(f) < limit {
		b = append(b, int64(f))
		f *= ratio
	}
	return append(b, limit)
}()

// leStrings caches the exposition `le` label values (bounds in seconds).
var leStrings = func() []string {
	s := make([]string, len(bounds))
	for i, b := range bounds {
		s[i] = strconv.FormatFloat(float64(b)/1e9, 'g', -1, 64)
	}
	return s
}()

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Int64, len(bounds))}
}

// Record adds one latency sample.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	i := sort.Search(len(bounds), func(i int) bool { return bounds[i] >= ns })
	if i == len(bounds) {
		i--
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int64 { return h.count.Load() }

// SumNS returns the sum of all samples in nanoseconds.
func (h *Histogram) SumNS() int64 { return h.sumNS.Load() }

// MaxNS returns the largest sample in nanoseconds.
func (h *Histogram) MaxNS() int64 { return h.maxNS.Load() }

// Quantile returns the latency at quantile q in [0,1] (bucket upper
// bound), or 0 with no samples.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return time.Duration(bounds[i])
		}
	}
	return time.Duration(bounds[len(bounds)-1])
}

// cumulative returns the cumulative bucket counts plus the consistent
// total (the +Inf bucket). Summing the per-bucket atomics in one pass
// keeps the series non-decreasing and makes _count equal the +Inf bucket
// even while writers race with the scrape.
func (h *Histogram) cumulative() (cum []int64, total int64) {
	cum = make([]int64, len(h.counts))
	for i := range h.counts {
		total += h.counts[i].Load()
		cum[i] = total
	}
	return cum, total
}

// Labels is a metric's label set. Registration sorts keys, so map order
// does not matter; the rendered form is deterministic.
type Labels map[string]string

type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// member is one (family, label set) time series.
type member struct {
	labels    string // pre-rendered `k="v",k2="v2"` (no braces), "" if unlabeled
	counter   *Counter
	counterFn func() int64
	gaugeFn   func() float64
	hist      *Histogram
}

// family groups the members sharing one metric name.
type family struct {
	name    string
	help    string
	kind    kind
	members []*member
	seen    map[string]bool // rendered label strings, for duplicate detection
}

// Registry holds registered metric families and renders them in
// Prometheus text exposition format. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu           sync.Mutex
	families     map[string]*family
	beforeScrape func()

	// scrapeMu serialises scrapes (see WriteText); nothing else takes it.
	scrapeMu sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// BeforeScrape sets the function every scrape runs first, so the callbacks
// of one owner can read a single gather instead of each locking its source
// again. There is one slot: a second call is a wiring bug and panics.
func (r *Registry) BeforeScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.beforeScrape != nil {
		panic("telemetry: BeforeScrape set twice")
	}
	r.beforeScrape = fn
}

// Counter registers and returns a new owned counter time series.
func (r *Registry) Counter(name, help string, ls Labels) *Counter {
	c := &Counter{}
	r.register(name, help, counterKind, ls, &member{counter: c})
	return c
}

// CounterFunc registers a counter time series whose value is read from fn
// at scrape time — for monotone totals the pipeline already tracks as
// plain atomics.
func (r *Registry) CounterFunc(name, help string, ls Labels, fn func() int64) {
	r.register(name, help, counterKind, ls, &member{counterFn: fn})
}

// GaugeFunc registers a gauge time series whose value is read from fn at
// scrape time.
func (r *Registry) GaugeFunc(name, help string, ls Labels, fn func() float64) {
	r.register(name, help, gaugeKind, ls, &member{gaugeFn: fn})
}

// Histogram registers and returns a new histogram time series.
func (r *Registry) Histogram(name, help string, ls Labels) *Histogram {
	h := NewHistogram()
	r.register(name, help, histogramKind, ls, &member{hist: h})
	return h
}

// Observe registers an existing histogram as a time series, so a
// histogram owned by the pipeline (e.g. a stage-latency histogram) can be
// exposed without copying.
func (r *Registry) Observe(name, help string, ls Labels, h *Histogram) {
	r.register(name, help, histogramKind, ls, &member{hist: h})
}

func (r *Registry) register(name, help string, k kind, ls Labels, m *member) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for key := range ls {
		if !validName(key) {
			panic(fmt.Sprintf("telemetry: metric %s: invalid label name %q", name, key))
		}
	}
	m.labels = renderLabels(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, seen: make(map[string]bool)}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("telemetry: metric %s registered as both %s and %s", name, f.kind, k))
	}
	if f.seen[m.labels] {
		panic(fmt.Sprintf("telemetry: duplicate time series %s{%s}", name, m.labels))
	}
	f.seen[m.labels] = true
	f.members = append(f.members, m)
}

// validName reports whether s is a legal Prometheus metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels renders a label set as `k="v",k2="v2"` with keys sorted
// and values escaped per the exposition format.
func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]byte, 0, 32)
	for i, k := range keys {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, k...)
		out = append(out, '=', '"')
		out = appendEscapedLabel(out, ls[k])
		out = append(out, '"')
	}
	return string(out)
}

// appendEscapedLabel escapes a label value: backslash, double-quote and
// newline per the text exposition format.
func appendEscapedLabel(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '"':
			dst = append(dst, '\\', '"')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, v[i])
		}
	}
	return dst
}
