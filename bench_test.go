// Benchmarks regenerating the paper's evaluation (one benchmark per figure,
// Section 8) plus the ablations DESIGN.md calls out. The figure benchmarks
// report the reproduced quantities as custom metrics (comm/doc, gini,
// jaccard-err, repartitions, ...) so `go test -bench=.` doubles as a
// compact reproduction report; cmd/experiments prints the full tables.
//
// Benchmarks run on a shortened stream (see benchSuite) — the shapes match
// the full runs of cmd/experiments, the absolute repartition counts scale
// with stream length.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/jaccard"
	"repro/internal/partition"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/theory"
	"repro/internal/twitgen"
)

// benchSuite runs cells on ~16k documents with 1-minute windows: large
// enough to exercise bootstrap, installs, additions and repartitions,
// small enough for iterating benchmarks.
func benchSuite() *expr.Suite {
	return expr.NewSuite(expr.Defaults{
		Minutes:     4,
		Seed:        1,
		WindowSpan:  stream.Minutes(1),
		ReportEvery: stream.Minutes(1),
		StatsEvery:  500,
	}, func(tps int, seed int64) twitgen.Config {
		c := twitgen.Default()
		c.TPS = tps
		c.TaggedFraction = 0.05
		c.Seed = seed
		return c
	})
}

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

// benchFigureCells runs the four default-parameter cells (one per
// algorithm) and reports the chosen metric per algorithm.
func benchFigureCells(b *testing.B, metric func(*expr.CellResult) float64, unit string) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		for _, alg := range []partition.Algorithm{partition.DS, partition.SCI, partition.SCC, partition.SCL} {
			c := s.Cell(expr.Params{Algorithm: alg})
			b.ReportMetric(metric(c), string(alg)+"-"+unit)
		}
	}
}

// BenchmarkFig3Communication regenerates Figure 3's default point: average
// notifications per notified document, per algorithm.
func BenchmarkFig3Communication(b *testing.B) {
	benchFigureCells(b, func(c *expr.CellResult) float64 { return c.Communication }, "comm")
}

// BenchmarkFig4LoadGini regenerates Figure 4's default point: the Gini
// coefficient of cumulative per-Calculator load.
func BenchmarkFig4LoadGini(b *testing.B) {
	benchFigureCells(b, func(c *expr.CellResult) float64 { return c.LoadGini }, "gini")
}

// BenchmarkFig5JaccardError regenerates Figure 5's default point: mean
// absolute Jaccard error against the exact centralized baseline.
func BenchmarkFig5JaccardError(b *testing.B) {
	benchFigureCells(b, func(c *expr.CellResult) float64 { return c.MeanAbsError }, "err")
}

// BenchmarkFig6Repartitions regenerates Figure 6's default point: the
// number of quality-triggered repartitions.
func BenchmarkFig6Repartitions(b *testing.B) {
	benchFigureCells(b, func(c *expr.CellResult) float64 { return float64(c.Repartitions) }, "repart")
}

// BenchmarkFig7Connectivity regenerates Figure 7: connected-component
// statistics of tumbling windows (here the 2-minute size; cmd/experiments
// prints all four sizes).
func BenchmarkFig7Connectivity(b *testing.B) {
	docs := benchDocs(16000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := stream.NewTumblingWindow(stream.Minutes(2))
		var comps, windows float64
		var maxLoad float64
		measure := func(batch []stream.Document) {
			if len(batch) == 0 {
				return
			}
			st := graph.WindowStats(batch)
			comps += float64(st.Components)
			maxLoad += st.MaxLoadShare
			windows++
		}
		for _, d := range docs {
			measure(w.Add(d))
		}
		measure(w.Flush())
		b.ReportMetric(comps/windows, "components")
		b.ReportMetric(100*maxLoad/windows, "maxload-pct")
	}
}

// BenchmarkFig8CommOverTime regenerates Figure 8's data: the communication
// time series with repartition marks (DS panel; the series length and mark
// count are reported).
func BenchmarkFig8CommOverTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		c := s.Cell(expr.Params{Algorithm: partition.DS})
		b.ReportMetric(float64(c.Dissem.CommSeries.Len()), "points")
		b.ReportMetric(float64(len(c.Dissem.CommSeries.Marks)), "marks")
		b.ReportMetric(c.Dissem.CommSeries.MeanY(), "comm-mean")
	}
}

// BenchmarkFig9LoadOverTime regenerates Figure 9's data: per-Calculator
// sorted load shares over time (SCL panel: the most-loaded node's mean
// share — low and flat for SCL).
func BenchmarkFig9LoadOverTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		c := s.Cell(expr.Params{Algorithm: partition.SCL})
		var maxShare float64
		for _, sm := range c.Dissem.LoadSeries {
			if len(sm.Shares) > 0 {
				maxShare += sm.Shares[0]
			}
		}
		if n := len(c.Dissem.LoadSeries); n > 0 {
			maxShare /= float64(n)
		}
		b.ReportMetric(maxShare, "top-share")
		b.ReportMetric(float64(len(c.Dissem.LoadSeries)), "samples")
	}
}

// BenchmarkTheoryNP regenerates the Section 5.1 worked example.
func BenchmarkTheoryNP(b *testing.B) {
	var np5, np10 float64
	for i := 0; i < b.N; i++ {
		sc := theory.DefaultScenario()
		np5 = sc.NP()
		sc.WindowMinutes = 10
		np10 = sc.NP()
	}
	b.ReportMetric(np5, "np-5min")
	b.ReportMetric(np10, "np-10min")
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
		b.Run(benchName("sn", sn), func(b *testing.B) {
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

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

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
