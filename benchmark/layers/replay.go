package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/benchmark/kit"
	"repro/internal/jaccard"
	"repro/internal/operators"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/trend"
)

// The replay works on reporting period 2 of the stream: period 1 is the
// Partitioner window the partitions are built from (and primes the trend
// predictors), period 2 is counted, reported, tracked, scored and archived.
const (
	windowPeriod = 1
	replayPeriod = 2
)

// reps is how often a probe that leaves no state behind is repeated; its
// metric is the median.
const reps = 3

// subsetBudget caps the replayed documents by the subsets they enumerate
// (2^tags each): the whole period of the narrow stream (about 210 000), the
// first 1 500 or so documents of the wide one (800 000 a period), whose
// full period would take the replay a minute. Per-document and
// per-coefficient metrics do not care; the absolute ones (segment decode,
// checkpoint sizes and times, compaction, counters) are those of the
// replayed documents.
const subsetBudget = 300_000

// primerDocs is how many window documents prime the Tracker and the trend
// predictors with a previous period.
const primerDocs = 1000

type replay struct {
	shape kit.Shape
	seed  int64
	st    *kit.Stream
	cfg   operators.Config

	window []stream.Document // period 1
	period []stream.Document // period 2

	spans   *kit.Spans
	root    int64
	metrics map[string]kit.Value

	// What one layer hands to the next.
	primer  []jaccard.Coefficient // period 1's exact report
	coeffs  []jaccard.Coefficient // period 2's exact report
	tracker *operators.Tracker
	trends  *trend.Stream
}

func newReplay(shape kit.Shape, seed int64) (*replay, error) {
	// Three periods: the window, the replayed period and
	// the first documents of the next (the trigger that closes it).
	st, err := kit.Generate(shape, seed, 3*kit.PeriodLen)
	if err != nil {
		return nil, err
	}
	r := &replay{
		shape:   shape,
		seed:    seed,
		st:      st,
		cfg:     kit.ServiceConfig(),
		window:  kit.PeriodDocs(st.Docs, windowPeriod),
		period:  kit.PeriodDocs(st.Docs, replayPeriod),
		spans:   kit.NewSpans(),
		metrics: make(map[string]kit.Value),
	}
	if len(r.window) == 0 || len(r.period) == 0 {
		return nil, fmt.Errorf("stream of %d documents holds no full period", len(st.Docs))
	}
	subsets := 0
	for i, d := range r.period {
		if subsets += 1 << d.Tags.Len(); subsets > subsetBudget {
			r.period = r.period[:i]
			break
		}
	}
	return r, nil
}

func (r *replay) run() error {
	r.root = r.spans.Open("layers.replay", replayPeriod, 0)
	defer r.spans.Close(r.root)
	for _, layer := range []struct {
		name string
		fn   func(parent int64) error
	}{
		{"partition", r.partitionLayer},
		{"tagset", r.tagsetLayer},
		{"jaccard", r.jaccardLayer},
		{"tracker", r.trackerLayer},
		{"trend", r.trendLayer},
		{"archive", r.archiveLayer},
		{"server", r.serverLayer},
		{"storm", r.stormLayer},
		{"telemetry", r.telemetryLayer},
	} {
		id := r.spans.Open("layer."+layer.name, replayPeriod, r.root)
		err := layer.fn(id)
		r.spans.Close(id)
		if err != nil {
			return fmt.Errorf("%s: %w", layer.name, err)
		}
	}
	return nil
}

// set records a metric; the harness stamps the unit from its own table.
func (r *replay) set(name string, value float64, n int) {
	r.metrics[name] = kit.Value{Value: value, N: n}
}

// timed runs fn inside a span and returns its wall time in nanoseconds and
// the heap allocations made meanwhile. The replay is single-threaded
// wherever it counts allocations, so the process-wide counter is fn's.
func (r *replay) timed(name string, parent int64, fn func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := r.spans.Open(name, replayPeriod, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.spans.Close(id)
	runtime.ReadMemStats(&after)
	return float64(d), float64(after.Mallocs - before.Mallocs)
}

// repeated runs a stateless probe reps times and returns the medians.
func (r *replay) repeated(name string, parent int64, fn func()) (ns, allocs float64) {
	var nss, as []float64
	for i := 0; i < reps; i++ {
		n, a := r.timed(name, parent, fn)
		nss, as = append(nss, n), append(as, a)
	}
	return kit.Median(nss), kit.Median(as)
}

func per(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// tempDir makes a scratch directory; the caller removes it.
func tempDir() (string, error) { return os.MkdirTemp("", "tagcorr-layers-") }

// weightedSets aggregates documents into distinct tagsets with counts, the
// Partitioner window's snapshot.
func weightedSets(docs []stream.Document) []stream.WeightedSet {
	index := make(map[tagset.Key]int)
	var sets []stream.WeightedSet
	for _, d := range docs {
		k := d.Tags.Key()
		i, ok := index[k]
		if !ok {
			i = len(sets)
			index[k] = i
			sets = append(sets, stream.WeightedSet{Tags: d.Tags})
		}
		sets[i].Count++
	}
	return sets
}
