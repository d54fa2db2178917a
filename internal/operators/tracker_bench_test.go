package operators

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/storm"
	"repro/internal/tagset"
	"repro/internal/twitgen"
)

// populateTracker fills tr with n distinct retained pairs spread over four
// reporting periods, with deterministic pseudo-random coefficients.
func populateTracker(tr *Tracker, n int) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		a := tagset.Tag(2 * i)
		tags := tagset.New(a, a+1)
		period := int64(1 + i%4)
		tr.Execute(coeffTuple(period, tags, rng.Float64(), int64(1+rng.Intn(50))), nil)
	}
}

var benchCoeffs []jaccard.Coefficient

// BenchmarkTrackerTopK compares the incrementally maintained top-k read
// (copy each shard's older block and newest heap, select k) against the
// gather-copy path (scan every retained coefficient) across retained-pair
// counts. The incremental path's cost is flat in n; the scan grows
// linearly.
func BenchmarkTrackerTopK(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		tr := NewTrackerWith(16, 128, 0)
		populateTracker(tr, n)
		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchCoeffs = tr.TopK(100)
			}
		})
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchCoeffs = tr.topKScan(100)
			}
		})
	}
}

// BenchmarkTrackerReadRetention times the two top-k reads the serving layer
// makes, TopK and ConsistentView, as the number of retained periods grows:
// 16 shards, bound 128, 4 096 coefficients a period (about twice the bound
// per shard; the same random pairs recur every period, which spreads them
// over the shards). periods=64 stands for a long keep-everything run.
func BenchmarkTrackerReadRetention(b *testing.B) {
	for _, periods := range []int{2, 8, 12, 64} {
		tr := NewTrackerWith(16, 128, 0)
		rng := rand.New(rand.NewSource(42))
		cs := make([]jaccard.Coefficient, 4096)
		for i := range cs {
			a := tagset.Tag(rng.Intn(1 << 20))
			cs[i].Tags = tagset.New(a, a+1+tagset.Tag(rng.Intn(1<<10)))
		}
		for p := 0; p < periods; p++ {
			for i := range cs {
				cs[i].J, cs[i].CN = rng.Float64(), int64(1+rng.Intn(50))
			}
			tr.Execute(coeffBatchTuple(int64(p), cs...), nil)
		}
		b.Run(fmt.Sprintf("TopK/periods=%d", periods), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchCoeffs = tr.TopK(100)
			}
		})
		b.Run(fmt.Sprintf("ConsistentView/periods=%d", periods), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchCoeffs, _, _ = tr.ConsistentView(100)
			}
		})
	}
}

// BenchmarkTrackerPrune times retention's eviction: with 16 shards, bound
// 128 and KeepPeriods 8 full of coefficients, each iteration opens one
// period with a single report, which prunes the oldest period from every
// shard. Filling the opened period is untimed. The evicted LRU is off, so
// the number is the eviction itself.
func BenchmarkTrackerPrune(b *testing.B) {
	const keep = 8
	for _, n := range []int{10_000, 50_000} {
		b.Run(fmt.Sprintf("coeffs/period=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			cs := make([]jaccard.Coefficient, n)
			for i := range cs {
				a := tagset.Tag(2 * i)
				cs[i] = jaccard.Coefficient{Tags: tagset.New(a, a+1), J: rng.Float64(), CN: int64(1 + rng.Intn(50))}
			}
			tr := NewTrackerWith(16, 128, 0)
			tr.SetRetention(keep)
			for p := int64(0); p < keep; p++ {
				tr.Execute(coeffBatchTuple(p, cs...), nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := int64(keep + i)
				tr.Execute(coeffBatchTuple(p, cs[0]), nil)
				b.StopTimer()
				tr.Execute(coeffBatchTuple(p, cs[1:]...), nil)
				b.StartTimer()
			}
			if st := tr.StatsSnapshot(); st.PrunedPeriods != int64(b.N) {
				b.Fatalf("pruned %d periods in %d iterations", st.PrunedPeriods, b.N)
			}
		})
	}
}

// BenchmarkTrackerReport measures the report (write) path under parallel
// load at different shard counts: shards=1 approximates the pre-sharding
// single-mutex Tracker, shards=16 is the default layout.
func BenchmarkTrackerReport(b *testing.B) {
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			tr := NewTrackerWith(shards, 128, 0)
			tr.SetRetention(8)
			// Pre-build the tagsets so the benchmark isolates Tracker work.
			const poolSize = 1 << 15
			pool := make([]tagset.Set, poolSize)
			for i := range pool {
				a := tagset.Tag(2 * i)
				pool[i] = tagset.New(a, a+1)
			}
			var next int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(atomic.AddInt64(&next, 1)))
				i := 0
				for pb.Next() {
					tags := pool[rng.Intn(poolSize)]
					period := int64(1 + i/200_000)
					tr.Execute(coeffTuple(period, tags, rng.Float64(), int64(1+rng.Intn(50))), nil)
					i++
				}
			})
		})
	}
}

// BenchmarkTrackerLookup times the point read behind /pairs: 16 shards, two
// retained periods of 60 000 coefficients each (distinct random pairs), and
// Lookup cycling over 1 000 keys of the newest period, so every call is a
// hit in the shard's newest table.
func BenchmarkTrackerLookup(b *testing.B) {
	const n = 60_000
	tr := NewTrackerWith(16, 128, 0)
	rng := rand.New(rand.NewSource(42))
	var keys []tagset.Key
	for p := int64(0); p < 2; p++ {
		cs := make([]jaccard.Coefficient, n)
		for i := range cs {
			a := tagset.Tag(rng.Intn(1 << 24))
			cs[i] = jaccard.Coefficient{Tags: tagset.New(a, a+1+tagset.Tag(rng.Intn(1<<10))), J: rng.Float64(), CN: int64(1 + rng.Intn(50))}
		}
		tr.Execute(coeffBatchTuple(p, cs...), nil)
		if p == 1 {
			for _, c := range cs[:1000] {
				keys = append(keys, c.Tags.Key())
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := tr.Lookup(keys[i%len(keys)]); !ok {
			b.Fatalf("key %d not found", i%len(keys))
		}
	}
}

// wideFlush is one period of wide documents (the benchmark's ingest-wide
// shape: 1 to 10 tags a document, uniformly, over 16-tag topic
// vocabularies), counted by a Calculator and flushed for tasks Tracker
// tasks: the CoeffBatch sub-batches, as the Tracker tasks receive them.
// The batches are detached from their report buffer, so they can be
// ingested again and again.
func wideFlush(tb testing.TB, docs, tasks int) []CoeffBatch {
	cfg := twitgen.Default()
	cfg.DriftInterval, cfg.NewTagProb = 0, 0
	cfg.Topics, cfg.TagsPerTopic, cfg.MaxTags, cfg.LengthSkew = 5000, 16, 10, 0
	g, err := twitgen.New(cfg, tagset.NewDictionary())
	if err != nil {
		tb.Fatal(err)
	}
	c := NewCalculator(Config{ReportEvery: 1000})
	c.trackerTasks = tasks
	for _, d := range g.Generate(docs) {
		c.table.Observe(d.Tags)
	}
	out := newCollector()
	c.flush(out, 0, 0)
	var batches []CoeffBatch
	for _, t := range out.byStream(StreamCoeff) {
		b := t.Values[0].(CoeffBatch)
		b.buf = nil
		batches = append(batches, b)
	}
	return batches
}

// BenchmarkTrackerIntake times the Tracker's report path on what a flush
// hands it: one period of 1 000 wide documents, flushed by a Calculator
// into four Tracker-task sub-batches, each ingested by Tracker.Execute (16
// shards, KeepPeriods 8, no archive, no Trend feed, so the batches are
// only read). Every iteration ingests the same flush as the next period,
// so from the ninth on each one prunes the oldest period and renews its
// table.
func BenchmarkTrackerIntake(b *testing.B) {
	batches := wideFlush(b, 1000, 4)
	coeffs := 0
	for _, bt := range batches {
		coeffs += len(bt.Coeffs)
	}
	tr := NewTrackerWith(16, 128, 0)
	tr.SetRetention(8)
	period := int64(0)
	ingest := func() {
		period++
		for _, bt := range batches {
			bt.Period = period
			tr.Execute(storm.Tuple{Stream: StreamCoeff, Values: []interface{}{bt}}, nil)
		}
	}
	for range 8 {
		ingest()
	}
	b.ReportAllocs()
	for b.Loop() {
		ingest()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*coeffs), "ns/coeff")
	b.ReportMetric(float64(coeffs), "coeffs/op")
}
