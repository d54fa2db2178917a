// Ablation benchmarks for the pipeline settings DESIGN.md calls out, plus
// micro-benchmarks on the core data structures. The paper's figures are not
// benchmarks: internal/expr's TestFigureLedger pins them, and
// cmd/experiments prints them at full length.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/jaccard"
	"repro/internal/partition"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/twitgen"
)

// benchDocs generates one window's worth of documents for micro-benchmarks.
func benchDocs(n int, seed int64) []stream.Document {
	cfg := twitgen.Default()
	cfg.Seed = seed
	return benchDocsFrom(cfg, n)
}

func benchDocsFrom(cfg twitgen.Config, n int) []stream.Document {
	g, err := twitgen.New(cfg, tagset.NewDictionary())
	if err != nil {
		panic(err)
	}
	return g.Generate(n)
}

func snapshotOf(docs []stream.Document) []stream.WeightedSet {
	w := stream.NewSlidingWindow(stream.Minutes(600))
	for _, d := range docs {
		w.Add(d)
	}
	return w.Snapshot()
}

// BenchmarkAblationCostMode compares Algorithm 2's phase-1 cost modes by
// building with SCC (communication cost), SCL (load cost) and SCI (zero
// cost) on one window and reporting the resulting quality.
func BenchmarkAblationCostMode(b *testing.B) {
	snap := snapshotOf(benchDocs(8000, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, alg := range []partition.Algorithm{partition.SCC, partition.SCL, partition.SCI} {
			res, err := partition.Build(snap, partition.Options{Algorithm: alg, K: 10, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			q := partition.Evaluate(res, snap)
			b.ReportMetric(q.AvgCom, string(alg)+"-avgcom")
			b.ReportMetric(q.Gini, string(alg)+"-gini")
		}
	}
}

// BenchmarkAblationSingleAddition varies the Single-Addition threshold sn
// (Section 7.1): smaller sn covers new tagsets sooner (higher coverage) at
// the cost of more Merger traffic.
func BenchmarkAblationSingleAddition(b *testing.B) {
	for _, sn := range []int{1, 3, 10} {
		sn := sn
		b.Run(fmt.Sprintf("sn=%d", sn), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				docs := benchDocs(16000, 5)
				cfg := benchPipelineConfig()
				cfg.SN = sn
				res := runPipeline(b, cfg, docs)
				b.ReportMetric(float64(res.SingleAdditions), "additions")
				b.ReportMetric(float64(res.UncoveredDocs), "uncovered-docs")
			}
		})
	}
}

// BenchmarkAblationHybridSplit compares plain DS against the Section 8.3
// hybrid (split oversized components with SCL) on a mixed-vocabulary
// stream that develops a giant component.
func BenchmarkAblationHybridSplit(b *testing.B) {
	cfg := twitgen.Default()
	cfg.Seed = 4
	cfg.MixProb = 0.05 // giant-component regime
	g, err := twitgen.New(cfg, tagset.NewDictionary())
	if err != nil {
		b.Fatal(err)
	}
	snap := snapshotOf(g.Generate(8000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, alg := range []partition.Algorithm{partition.DS, partition.DSHybrid} {
			res, err := partition.Build(snap, partition.Options{Algorithm: alg, K: 10})
			if err != nil {
				b.Fatal(err)
			}
			q := partition.Evaluate(res, snap)
			b.ReportMetric(q.Gini, string(alg)+"-gini")
			b.ReportMetric(q.AvgCom, string(alg)+"-avgcom")
		}
	}
}

// BenchmarkAblationAutoScale measures topology scaling (Section 7.3): with
// a load target, light streams activate fewer Calculators without hurting
// coverage.
func BenchmarkAblationAutoScale(b *testing.B) {
	for _, target := range []int64{0, 2000, 8000} {
		target := target
		name := "fixed-k"
		if target > 0 {
			name = fmt.Sprintf("target=%d", target)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				docs := benchDocs(16000, 15)
				cfg := benchPipelineConfig()
				cfg.AutoScaleLoad = target
				res := runPipeline(b, cfg, docs)
				active := 0
				for _, c := range res.Dissem.PerCalculator {
					if c > 0 {
						active++
					}
				}
				b.ReportMetric(float64(active), "active-calcs")
				b.ReportMetric(res.Communication, "comm")
			}
		})
	}
}

// BenchmarkWindowKinds compares the Partitioner's two window types
// (Section 6.2): time-based vs count-based, on insertion throughput.
func BenchmarkWindowKinds(b *testing.B) {
	docs := benchDocs(16384, 16)
	b.Run("time-5min", func(b *testing.B) {
		w := stream.NewSlidingWindow(stream.Minutes(5))
		for i := 0; i < b.N; i++ {
			w.Add(docs[i%len(docs)])
		}
	})
	b.Run("count-10000", func(b *testing.B) {
		w := stream.NewCountWindow(10000)
		for i := 0; i < b.N; i++ {
			w.Add(docs[i%len(docs)])
		}
	})
}

// BenchmarkAblationIndex compares the Disseminator's inverted tag index
// against a linear scan over partitions for routing (the design choice of
// Section 3.3, citing Helmer & Moerkotte).
func BenchmarkAblationIndex(b *testing.B) {
	snap := snapshotOf(benchDocs(8000, 6))
	res, err := partition.Build(snap, partition.Options{Algorithm: partition.SCL, K: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	queries := benchDocs(2000, 7)

	b.Run("inverted-index", func(b *testing.B) {
		index := make(map[tagset.Tag][]int)
		for i, p := range res.Parts {
			for _, tg := range p.Tags {
				index[tg] = append(index[tg], i)
			}
		}
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			d := queries[i%len(queries)]
			seen := map[int]struct{}{}
			for _, tg := range d.Tags {
				for _, p := range index[tg] {
					seen[p] = struct{}{}
				}
			}
			hits += len(seen)
		}
		_ = hits
	})
	b.Run("linear-scan", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			d := queries[i%len(queries)]
			for p := range res.Parts {
				if d.Tags.Intersects(res.Parts[p].Tags) {
					hits++
				}
			}
		}
		_ = hits
	})
}

// --- micro-benchmarks on the core data structures ---

func BenchmarkPartitionBuild(b *testing.B) {
	snap := snapshotOf(benchDocs(8000, 8))
	for _, alg := range []partition.Algorithm{partition.DS, partition.SCI, partition.SCC, partition.SCL, partition.DSHybrid} {
		alg := alg
		b.Run(string(alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := partition.Build(snap, partition.Options{Algorithm: alg, K: 10, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCounterObserve(b *testing.B) {
	docs := benchDocs(4096, 9)
	ct := jaccard.NewCounterTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct.Observe(docs[i%len(docs)].Tags)
	}
}

// BenchmarkCounterCoefficients times the period flush alone: one reporting
// period (3 900 documents) of up to N tags per document, lengths uniform,
// is observed once and Coefficients is called on the unchanged table.
func BenchmarkCounterCoefficients(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("tags=%d", n), func(b *testing.B) {
			cfg := twitgen.Default()
			cfg.Seed = 9
			cfg.TagsPerTopic = 16
			cfg.MaxTags = n
			cfg.LengthSkew = 0
			ct := jaccard.NewCounterTable()
			for _, d := range benchDocsFrom(cfg, 3900) {
				ct.Observe(d.Tags)
			}
			b.ReportAllocs()
			b.ResetTimer()
			coeffs := 0
			for i := 0; i < b.N; i++ {
				coeffs = len(ct.Coefficients(1))
			}
			b.ReportMetric(float64(coeffs), "coeffs")
			b.ReportMetric(float64(ct.Counters()), "counters")
		})
	}
}

// BenchmarkSetCompare times the tie-break of every coefficient ordering on
// pairs that share their first tags, as neighbours in a sort do.
func BenchmarkSetCompare(b *testing.B) {
	docs := benchDocs(4096, 9)
	b.ReportAllocs()
	b.ResetTimer()
	less := 0
	for i := 0; i < b.N; i++ {
		s := docs[i%len(docs)].Tags
		if tagset.Compare(s, s[:len(s)-1]) < 0 {
			less++
		}
	}
	if less != 0 {
		b.Fatalf("%d sets sorted before their own proper prefix", less)
	}
}

func BenchmarkComponents(b *testing.B) {
	snap := snapshotOf(benchDocs(8000, 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Components(snap)
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	cfg := twitgen.Default()
	g, err := twitgen.New(cfg, tagset.NewDictionary())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// --- helpers ---

func benchPipelineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.WindowSpan = stream.Minutes(1)
	cfg.ReportEvery = stream.Minutes(1)
	cfg.StatsEvery = 500
	cfg.Algorithm = partition.DS
	return cfg
}

func runPipeline(b *testing.B, cfg core.Config, docs []stream.Document) *core.Result {
	b.Helper()
	pipe, err := core.NewPipeline(cfg, core.SliceSource(docs))
	if err != nil {
		b.Fatal(err)
	}
	return pipe.Run()
}
