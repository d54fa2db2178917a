package jaccard

import (
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/tagset"
)

// Count returns the number of observed documents containing all tags of s
// (zero if the combination was never seen).
func (ct *CounterTable) Count(s tagset.Set) int64 {
	if len(s) == 0 || len(s) > maxTags {
		return 0
	}
	var key tagset.Fold
	for _, t := range s {
		key = key.Add(foldTag(t))
	}
	if i := ct.lookup(key, s, uint32(1)<<len(s)-1); i >= 0 {
		return ct.counters[i].n
	}
	return 0
}

// UnionCount returns the number of observed documents containing any tag of
// s, by inclusion–exclusion over the subset counters (Eq. 2). Together with
// Count and Jaccard it is the definitional single-set path, the oracle of
// Coefficients, which computes the same numbers for a whole period at once.
func (ct *CounterTable) UnionCount(s tagset.Set) int64 {
	var total int64
	s.Subsets(1, func(sub tagset.Set) {
		c := ct.Count(sub)
		if sub.Len()%2 == 1 {
			total += c
		} else {
			total -= c
		}
	})
	return total
}

// Jaccard returns the coefficient for s and whether it is defined (the
// denominator is positive and s has at least two tags).
func (ct *CounterTable) Jaccard(s tagset.Set) (float64, bool) {
	if s.Len() < 2 {
		return 0, false
	}
	inter := ct.Count(s)
	if inter == 0 {
		return 0, false
	}
	union := ct.UnionCount(s)
	if union <= 0 {
		return 0, false
	}
	return float64(inter) / float64(union), true
}

func TestObserveCounts(t *testing.T) {
	ct := NewCounterTable()
	ct.Observe(tagset.New(1, 2))
	ct.Observe(tagset.New(1, 2))
	ct.Observe(tagset.New(1))
	if ct.Docs() != 3 {
		t.Errorf("Docs = %d", ct.Docs())
	}
	if got := ct.Count(tagset.New(1)); got != 3 {
		t.Errorf("count({1}) = %d, want 3", got)
	}
	if got := ct.Count(tagset.New(2)); got != 2 {
		t.Errorf("count({2}) = %d, want 2", got)
	}
	if got := ct.Count(tagset.New(1, 2)); got != 2 {
		t.Errorf("count({1,2}) = %d, want 2", got)
	}
	if got := ct.Count(tagset.New(3)); got != 0 {
		t.Errorf("count({3}) = %d, want 0", got)
	}
	ct.Observe(nil) // ignored
	if ct.Docs() != 3 {
		t.Error("empty set counted")
	}
}

func TestUnionCountInclusionExclusion(t *testing.T) {
	ct := NewCounterTable()
	// 3 docs: {1,2}, {1}, {2,3}
	ct.Observe(tagset.New(1, 2))
	ct.Observe(tagset.New(1))
	ct.Observe(tagset.New(2, 3))
	// |T1 ∪ T2| = docs containing 1 or 2 = all 3.
	if got := ct.UnionCount(tagset.New(1, 2)); got != 3 {
		t.Errorf("union({1,2}) = %d, want 3", got)
	}
	// |T1 ∪ T3| = {1,2},{1},{2,3} → docs with 1 or 3 = 3.
	if got := ct.UnionCount(tagset.New(1, 3)); got != 3 {
		t.Errorf("union({1,3}) = %d, want 3", got)
	}
	// |T2 ∪ T3| = docs with 2 or 3 = 2.
	if got := ct.UnionCount(tagset.New(2, 3)); got != 2 {
		t.Errorf("union({2,3}) = %d, want 2", got)
	}
	// Triple union over {1,2,3} = 3.
	if got := ct.UnionCount(tagset.New(1, 2, 3)); got != 3 {
		t.Errorf("union({1,2,3}) = %d, want 3", got)
	}
}

func TestJaccardPaperStyle(t *testing.T) {
	ct := NewCounterTable()
	// 4 docs with {a,b}, 1 doc with {a}, 1 doc with {b}.
	for i := 0; i < 4; i++ {
		ct.Observe(tagset.New(10, 20))
	}
	ct.Observe(tagset.New(10))
	ct.Observe(tagset.New(20))
	j, ok := ct.Jaccard(tagset.New(10, 20))
	if !ok {
		t.Fatal("Jaccard undefined")
	}
	if math.Abs(j-4.0/6.0) > 1e-12 {
		t.Errorf("J = %g, want 2/3", j)
	}
}

func TestJaccardUndefinedCases(t *testing.T) {
	ct := NewCounterTable()
	ct.Observe(tagset.New(1))
	if _, ok := ct.Jaccard(tagset.New(1)); ok {
		t.Error("singleton should have no coefficient")
	}
	if _, ok := ct.Jaccard(tagset.New(1, 2)); ok {
		t.Error("never co-occurring pair should have no coefficient")
	}
}

func TestCoefficientsReport(t *testing.T) {
	ct := NewCounterTable()
	ct.Observe(tagset.New(1, 2))
	ct.Observe(tagset.New(1, 2))
	ct.Observe(tagset.New(1, 3))
	coeffs := sorted(ct.Coefficients(1))
	// Expect coefficients for {1,2} and {1,3} only (subsets of size >= 2
	// with positive counters).
	if len(coeffs) != 2 {
		t.Fatalf("got %d coefficients: %v", len(coeffs), coeffs)
	}
	// {1,2}: inter 2, union 3 → 2/3. {1,3}: inter 1, union 3 → 1/3.
	if math.Abs(coeffs[0].J-2.0/3.0) > 1e-12 || coeffs[0].CN != 2 {
		t.Errorf("top coefficient = %+v", coeffs[0])
	}
	// minCN filter.
	if got := ct.Coefficients(2); len(got) != 1 {
		t.Errorf("minCN=2 gave %d coefficients", len(got))
	}
}

func TestReset(t *testing.T) {
	ct := NewCounterTable()
	ct.Observe(tagset.New(1, 2))
	ct.Reset()
	if ct.Docs() != 0 || ct.Counters() != 0 {
		t.Error("Reset incomplete")
	}
	if got := ct.Count(tagset.New(1)); got != 0 {
		t.Errorf("counter survived reset: %d", got)
	}
}

func TestCentralizedReportResets(t *testing.T) {
	c := NewCentralized()
	c.Observe(tagset.New(1, 2))
	c.Observe(tagset.New(1, 2))
	c.Observe(tagset.New(1, 3))
	c.Observe(tagset.New(256, 3))
	rep := c.Report(1)
	// {1,2}: 2/3; {3,256}: 1/2; {1,3}: 1/4. Report sorts by descending J.
	want := []tagset.Set{tagset.New(1, 2), tagset.New(3, 256), tagset.New(1, 3)}
	if len(rep) != len(want) {
		t.Fatalf("report = %v", rep)
	}
	for i, c := range rep {
		if !c.Tags.Equal(want[i]) {
			t.Fatalf("report = %v, want tagsets in the order %v", rep, want)
		}
	}
	if c.Table().Docs() != 0 {
		t.Error("Report did not reset")
	}
}

func TestCompareReports(t *testing.T) {
	base := []Coefficient{
		{Tags: tagset.New(1, 2), J: 0.5},
		{Tags: tagset.New(3, 4), J: 0.8},
		{Tags: tagset.New(5, 6), J: 0.2},
	}
	dist := []Coefficient{
		{Tags: tagset.New(1, 2), J: 0.4}, // err 0.1
		{Tags: tagset.New(3, 4), J: 0.8}, // err 0
		// {5,6} missing → coverage 2/3
	}
	err, cov := CompareReports(base, dist)
	if math.Abs(err-0.05) > 1e-12 {
		t.Errorf("meanAbsErr = %g, want 0.05", err)
	}
	if math.Abs(cov-2.0/3.0) > 1e-12 {
		t.Errorf("coverage = %g, want 2/3", cov)
	}
	// Edge cases.
	if e, c := CompareReports(nil, dist); e != 0 || c != 1 {
		t.Errorf("empty baseline: %g %g", e, c)
	}
	if _, c := CompareReports(base, nil); c != 0 {
		t.Errorf("empty distributed coverage = %g", c)
	}
}

// TestQuickJaccardAgainstBruteForce compares CounterTable values against a
// direct document-set computation on random small streams.
func TestQuickJaccardAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		ct := NewCounterTable()
		var docs []tagset.Set
		for i := 0; i < 60; i++ {
			n := 1 + r.Intn(4)
			tags := make([]tagset.Tag, n)
			for j := range tags {
				tags[j] = tagset.Tag(r.Intn(8))
			}
			s := tagset.New(tags...)
			docs = append(docs, s)
			ct.Observe(s)
		}
		// Brute force for random query sets.
		for q := 0; q < 20; q++ {
			n := 2 + r.Intn(3)
			tags := make([]tagset.Tag, n)
			for j := range tags {
				tags[j] = tagset.Tag(r.Intn(8))
			}
			query := tagset.New(tags...)
			if query.Len() < 2 {
				continue
			}
			var inter, union int64
			for _, d := range docs {
				if query.SubsetOf(d) {
					inter++
				}
				if query.Intersects(d) {
					union++
				}
			}
			if got := ct.Count(query); got != inter {
				t.Fatalf("Count(%v) = %d, brute force %d", query, got, inter)
			}
			if got := ct.UnionCount(query); got != union {
				t.Fatalf("UnionCount(%v) = %d, brute force %d", query, got, union)
			}
			j, ok := ct.Jaccard(query)
			if ok != (inter > 0) {
				t.Fatalf("Jaccard(%v) defined=%v, want %v", query, ok, inter > 0)
			}
			if ok {
				want := float64(inter) / float64(union)
				if math.Abs(j-want) > 1e-12 {
					t.Fatalf("Jaccard(%v) = %g, want %g", query, j, want)
				}
				if j < 0 || j > 1 {
					t.Fatalf("Jaccard out of range: %g", j)
				}
			}
		}
	}
}

// wideStream is a seeded stream of n documents of 1–maxLen tags drawn from
// wideTags.
func wideStream(seed int64, n, maxLen int) []tagset.Set {
	r := rand.New(rand.NewSource(seed))
	docs := make([]tagset.Set, n)
	for i := range docs {
		tags := make([]tagset.Tag, 1+r.Intn(maxLen))
		for j := range tags {
			tags[j] = wideTags[r.Intn(len(wideTags))]
		}
		docs[i] = tagset.New(tags...)
	}
	return docs
}

// TestCoefficientsDifferential checks the period flush against the
// definitional path on seeded random streams of 1–10 tags per document
// drawn from wideTags: Coefficients must report exactly the coefficients
// referenceCoefficients derives tagset by tagset — none missing, none
// twice, same CN, same J — whatever order the maximal tagsets are visited
// in, and must do so again when asked twice. The table must hold one
// counter per distinct subset of the documents.
func TestCoefficientsDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		docs := wideStream(seed, 40, 10)
		ct := NewCounterTable()
		subsets := map[tagset.Key]bool{}
		for _, d := range docs {
			ct.Observe(d)
			d.Subsets(1, func(sub tagset.Set) { subsets[sub.Key()] = true })
		}
		if ct.Counters() != len(subsets) {
			t.Fatalf("seed %d: %d counters for %d distinct subsets", seed, ct.Counters(), len(subsets))
		}
		for _, minCN := range []int64{1, 2, 5} {
			want := referenceCoefficients(ct, docs, minCN)
			if minCN == 1 && len(want) < 100 {
				t.Fatalf("seed %d: only %d reference coefficients, stream too thin", seed, len(want))
			}
			for pass := 0; pass < 2; pass++ {
				if got := sorted(ct.Coefficients(minCN)); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d minCN %d pass %d: %d coefficients, reference %d; first difference at %d",
						seed, minCN, pass, len(got), len(want), firstDiff(got, want))
				}
			}
		}
	}
}

// TestCoefficientsDeterministic pins the order contract: Coefficients'
// order is unspecified, but the same sequence of Observe calls gives the
// same slice, on a fresh table and on one that has counted and been Reset
// before.
func TestCoefficientsDeterministic(t *testing.T) {
	docs := wideStream(31, 60, 10)
	fresh, reused := NewCounterTable(), NewCounterTable()
	for _, d := range docs {
		fresh.Observe(d)
		reused.Observe(d)
	}
	want := fresh.Coefficients(1)
	if got := reused.Coefficients(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("two tables fed the same stream differ at %d", firstDiff(got, want))
	}
	reused.Reset()
	for _, d := range wideStream(32, 60, 10) {
		reused.Observe(d)
	}
	reused.Reset()
	for _, d := range docs {
		reused.Observe(d)
	}
	if got := reused.Coefficients(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("the same stream after two Resets differs at %d", firstDiff(got, want))
	}
}

// TestCounterTableFoldCollisions replaces the fold with degenerate ones —
// every set folds alike, or by two bits of each tag — so that nearly every
// lookup walks a probe chain past other tagsets' counters. Count and
// UnionCount must still equal a brute-force count over the documents for
// every observed subset and for absent sets, and Coefficients must report
// what the real fold reports, in the same order (the order depends on the
// roots, not on the fold).
func TestCounterTableFoldCollisions(t *testing.T) {
	docs := wideStream(7, 30, 5)
	exact := NewCounterTable()
	for _, d := range docs {
		exact.Observe(d)
	}
	want := exact.Coefficients(1)
	absent := []tagset.Set{tagset.New(wideTags[0], wideTags[15]), tagset.New(3), tagset.New(wideTags[1], wideTags[2], 9)}

	for _, fold := range []struct {
		name string
		fn   func(tagset.Tag) tagset.Fold
	}{
		{"constant", func(tagset.Tag) tagset.Fold { return tagset.Fold{} }},
		{"two bits", func(t tagset.Tag) tagset.Fold { return tagset.Fold{A: uint64(t) & 3} }},
	} {
		t.Run(fold.name, func(t *testing.T) {
			defer func(f func(tagset.Tag) tagset.Fold) { foldTag = f }(foldTag)
			foldTag = fold.fn
			ct := NewCounterTable()
			for _, d := range docs {
				ct.Observe(d)
			}
			if ct.Counters() != exact.Counters() {
				t.Fatalf("%d counters, %d under the real fold", ct.Counters(), exact.Counters())
			}
			check := func(s tagset.Set) {
				var inter, union int64
				for _, d := range docs {
					if s.SubsetOf(d) {
						inter++
					}
					if s.Intersects(d) {
						union++
					}
				}
				if got := ct.Count(s); got != inter {
					t.Fatalf("Count(%v) = %d, brute force %d", s, got, inter)
				}
				if got := ct.UnionCount(s); got != union {
					t.Fatalf("UnionCount(%v) = %d, brute force %d", s, got, union)
				}
			}
			for _, d := range docs {
				d.Subsets(1, func(sub tagset.Set) { check(sub.Clone()) })
			}
			for _, s := range absent {
				check(s)
			}
			if got := ct.Coefficients(1); !reflect.DeepEqual(got, want) {
				t.Fatalf("Coefficients differ from the real fold's at %d", firstDiff(got, want))
			}
		})
	}
}

func firstDiff(a, b []Coefficient) int {
	for i := range a {
		if i >= len(b) || !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return len(a)
}

// TestCoefficientsAfterReset checks that nothing of a flushed period —
// counters, transform roots or exactly-once marks — reaches the next one:
// the same documents report the same coefficients again, and documents
// over other tags report only their own.
func TestCoefficientsAfterReset(t *testing.T) {
	ct := NewCounterTable()
	first := []tagset.Set{tagset.New(1, 2, 3), tagset.New(1, 2), tagset.New(256, 1)}
	for _, s := range first {
		ct.Observe(s)
	}
	want := ct.Coefficients(1)
	if len(want) != 5 {
		t.Fatalf("first period: %v", want)
	}
	ct.Reset()
	if got := ct.Coefficients(1); len(got) != 0 {
		t.Fatalf("empty period after Reset reports %v", got)
	}
	for _, s := range first {
		ct.Observe(s)
	}
	if got := ct.Coefficients(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("same documents after Reset: %v, want %v", got, want)
	}
	ct.Reset()
	ct.Observe(tagset.New(7, 8))
	got := ct.Coefficients(1)
	if len(got) != 1 || !got[0].Tags.Equal(tagset.New(7, 8)) || got[0].CN != 1 || got[0].J != 1 {
		t.Fatalf("third period: %v", got)
	}
}

// TestObserveAllocations guards the allocation-free counter keys: on a warm
// table (every subset already has its counter) Observe allocates nothing,
// and after a Reset a period no larger than the last one is counted into
// the memory the table already owns. The collector is off while it counts:
// a cycle allocates on its own account and would be counted too.
func TestObserveAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ct := NewCounterTable()
	s := tagset.New(1, 255, 256, 257, 65536, 70000, 1<<24, 1<<31)
	ct.Observe(s)
	if got := testing.AllocsPerRun(100, func() { ct.Observe(s) }); got != 0 {
		t.Errorf("Observe of %d tags (%d subsets) on a warm table: %.0f allocations, want 0",
			s.Len(), 1<<s.Len()-1, got)
	}
	docs := wideStream(5, 200, 8)
	period := func() {
		ct.Reset()
		for _, d := range docs {
			ct.Observe(d)
		}
	}
	period()
	if got := testing.AllocsPerRun(5, period); got != 0 {
		t.Errorf("a period of %d documents after Reset: %.0f allocations, want 0", len(docs), got)
	}
}

// indexBuckets is how many buckets x allocated. The index exports no
// statistic of its size, so the test reads its bucket array's length.
func indexBuckets(x *tagset.FoldIndex) int {
	return reflect.ValueOf(x).Elem().FieldByName("buckets").Len()
}

// TestResetKeepsCapacity is the Calculator's steady state on one table:
// the same period of wideStream documents counted K times, with a Reset
// between, must leave the capacities of the counters, the arena, the
// subset slots, every roots[n] and the index buckets where the first
// period left them. It reads the capacities, not an allocation count:
// testing.AllocsPerRun floors its mean, so a growth that recurs only every
// few periods would read as none.
func TestResetKeepsCapacity(t *testing.T) {
	ct := NewCounterTable()
	docs := wideStream(5, 300, 10)
	shape := func() []int {
		caps := []int{cap(ct.counters), cap(ct.arena), cap(ct.sub), indexBuckets(&ct.index)}
		for _, r := range ct.roots {
			caps = append(caps, cap(r))
		}
		return caps
	}
	var want []int
	for period := range 8 {
		ct.Reset()
		for _, d := range docs {
			ct.Observe(d)
		}
		if got := shape(); want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("period %d: capacities (counters, arena, sub, index buckets, roots[0..%d]) %v, after the first period %v",
				period, maxTags, got, want)
		}
	}
}

// coefficientsAllocs is what a Coefficients call allocates: its array and
// its arena. A -race build counts more (race_test.go).
var coefficientsAllocs float64 = 2

// TestCoefficientsOneArena pins the report's shape: one coefficient array
// and one tag arena per call, however many coefficients, and every
// coefficient's tags a window of the arena capped at its own length, so an
// append to one copies instead of overwriting its neighbour. The collector
// is off while it counts: a cycle the arrays start allocates on its own
// account.
func TestCoefficientsOneArena(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ct := NewCounterTable()
	for _, d := range wideStream(11, 300, 8) {
		ct.Observe(d)
	}
	report := ct.Coefficients(1)
	if len(report) < 100 {
		t.Fatalf("the stream reported only %d coefficients", len(report))
	}
	for i, c := range report {
		if cap(c.Tags) != len(c.Tags) {
			t.Fatalf("coefficient %d: tags have cap %d beyond their %d", i, cap(c.Tags), len(c.Tags))
		}
		grown := append(c.Tags, 0)
		if &grown[0] == &c.Tags[0] {
			t.Fatalf("coefficient %d: an append wrote into the arena", i)
		}
	}
	if got := testing.AllocsPerRun(5, func() { ct.Coefficients(1) }); got != coefficientsAllocs {
		t.Errorf("a report of %d coefficients: %.0f allocations, want %.0f (array and arena)", len(report), got, coefficientsAllocs)
	}
}

// TestAppendCoefficientsReuses pins the report into given arrays: a second
// report of the same period into the first one's arrays allocates nothing
// and gives the same coefficients and folds, and Coefficients gives the
// same coefficients too.
func TestAppendCoefficientsReuses(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ct := NewCounterTable()
	for _, d := range wideStream(12, 300, 8) {
		ct.Observe(d)
	}
	want := ct.Coefficients(1)
	out, arena, folds := ct.AppendCoefficients(nil, nil, nil, 1)
	first := slices.Clone(folds)
	if got := testing.AllocsPerRun(5, func() {
		out, arena, folds = ct.AppendCoefficients(out[:0], arena[:0], folds[:0], 1)
	}); got != 0 {
		t.Errorf("a report into arrays large enough: %.0f allocations, want 0", got)
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("report into reused arrays differs from Coefficients")
	}
	if !slices.Equal(folds, first) {
		t.Fatalf("folds of the report into reused arrays differ from the first report's")
	}
}

// BenchmarkCounterTable times the two halves of a Calculator's period over
// wideStream: Observe of every document into a reset table, and the report
// into the arrays of the last one, as a Calculator reuses them.
func BenchmarkCounterTable(b *testing.B) {
	docs := wideStream(13, 1000, 10)
	ct := NewCounterTable()
	period := func() {
		ct.Reset()
		for _, d := range docs {
			ct.Observe(d)
		}
	}
	b.Run("Observe", func(b *testing.B) {
		period()
		b.ReportAllocs()
		for b.Loop() {
			period()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(docs)), "ns/doc")
	})
	b.Run("Coefficients", func(b *testing.B) {
		period()
		out, arena, folds := ct.AppendCoefficients(nil, nil, nil, 1)
		b.ReportAllocs()
		for b.Loop() {
			out, arena, folds = ct.AppendCoefficients(out[:0], arena[:0], folds[:0], 1)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(out)), "ns/coeff")
	})
}
