package partition

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stream"
	"repro/internal/tagset"
)

func ws(count int64, tags ...tagset.Tag) stream.WeightedSet {
	return stream.WeightedSet{Tags: tagset.New(tags...), Count: count}
}

// figure1 is the running example of the paper's Figure 1.
func figure1() []stream.WeightedSet {
	// 0=munich 1=beer 2=soccer 3=pizza 4=oktoberfest 5=bavaria
	// 6=beach 7=sunny 8=friday
	return []stream.WeightedSet{
		ws(10, 0, 1, 2),
		ws(4, 1, 3),
		ws(3, 0, 4),
		ws(2, 5, 2),
		ws(1, 6, 7),
		ws(1, 8, 7),
	}
}

func buildOrFatal(t *testing.T, sets []stream.WeightedSet, alg Algorithm, k int) *Result {
	t.Helper()
	r, err := Build(sets, Options{Algorithm: alg, K: k, Seed: 42})
	if err != nil {
		t.Fatalf("Build(%s,k=%d): %v", alg, k, err)
	}
	return r
}

// checkCoverage asserts the paper's hard requirement: every input tagset is
// fully contained in at least one partition.
func checkCoverage(t *testing.T, r *Result, sets []stream.WeightedSet) {
	t.Helper()
	for _, s := range sets {
		if s.Tags.IsEmpty() {
			continue
		}
		if !r.Covers(s.Tags) {
			t.Errorf("%s: tagset %v not covered by any partition", r.Algorithm, s.Tags)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{Algorithm: "bogus", K: 2}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := Build(nil, Options{Algorithm: DS, K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestAllAlgorithmsCoverFigure1(t *testing.T) {
	for _, alg := range []Algorithm{DS, SCC, SCL, SCI, DSHybrid} {
		for _, k := range []int{1, 2, 3, 5} {
			r := buildOrFatal(t, figure1(), alg, k)
			if r.K() != k {
				t.Errorf("%s: K = %d, want %d", alg, r.K(), k)
			}
			checkCoverage(t, r, figure1())
		}
	}
}

func TestDSZeroReplication(t *testing.T) {
	r := buildOrFatal(t, figure1(), DS, 2)
	if rep := r.Replication(); rep != 1 {
		t.Errorf("DS replication = %g, want exactly 1", rep)
	}
	// Two components of loads 19 and 2: the heavy one alone, the light one
	// on the other node.
	loads := []int64{r.Parts[0].Load, r.Parts[1].Load}
	if loads[0]+loads[1] != 21 {
		t.Errorf("loads = %v, want sum 21", loads)
	}
	found19 := loads[0] == 19 || loads[1] == 19
	if !found19 {
		t.Errorf("loads = %v, want one partition with 19", loads)
	}
}

func TestDSMoreComponentsThanK(t *testing.T) {
	// Four disjoint components with loads 8,5,4,3 packed onto 2 nodes:
	// greedy LPT gives {8,3}=11 and {5,4}=9.
	sets := []stream.WeightedSet{
		ws(8, 1, 2), ws(5, 3, 4), ws(4, 5, 6), ws(3, 7, 8),
	}
	r := buildOrFatal(t, sets, DS, 2)
	checkCoverage(t, r, sets)
	a, b := r.Parts[0].Load, r.Parts[1].Load
	if a+b != 20 {
		t.Fatalf("loads %d+%d != 20", a, b)
	}
	if max64(a, b) != 11 {
		t.Errorf("LPT packing gave loads %d,%d; want 11,9", a, b)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestDSFewerComponentsThanK(t *testing.T) {
	sets := []stream.WeightedSet{ws(5, 1, 2)}
	r := buildOrFatal(t, sets, DS, 3)
	checkCoverage(t, r, sets)
	nonEmpty := 0
	for _, p := range r.Parts {
		if !p.Tags.IsEmpty() {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Errorf("nonEmpty = %d, want 1", nonEmpty)
	}
}

func TestSetCoverAlgorithmsOnChain(t *testing.T) {
	// A chain a-b-c-d-e forms one giant component; DS cannot split it but
	// set-cover algorithms distribute the tagsets across partitions.
	sets := []stream.WeightedSet{
		ws(10, 1, 2), ws(10, 2, 3), ws(10, 3, 4), ws(10, 4, 5),
	}
	for _, alg := range []Algorithm{SCC, SCL, SCI} {
		r := buildOrFatal(t, sets, alg, 2)
		checkCoverage(t, r, sets)
		nonEmpty := 0
		for _, p := range r.Parts {
			if !p.Tags.IsEmpty() {
				nonEmpty++
			}
		}
		if nonEmpty != 2 {
			t.Errorf("%s: nonEmpty = %d, want 2", alg, nonEmpty)
		}
	}
	// DS puts everything on one node.
	r := buildOrFatal(t, sets, DS, 2)
	if r.Parts[0].Load != 40 && r.Parts[1].Load != 40 {
		t.Errorf("DS should put the whole chain on one node: %+v", r.Parts)
	}
}

func TestSCLBalancesBetterThanDS(t *testing.T) {
	// One dominant component plus small ones: SCL must have lower load
	// imbalance than DS.
	r := rand.New(rand.NewSource(5))
	var sets []stream.WeightedSet
	// Giant component: 30 tagsets chained over tags 0..30.
	for i := 0; i < 30; i++ {
		sets = append(sets, ws(int64(5+r.Intn(10)), tagset.Tag(i), tagset.Tag(i+1)))
	}
	// 10 singleton-component tagsets.
	for i := 0; i < 10; i++ {
		sets = append(sets, ws(2, tagset.Tag(100+2*i), tagset.Tag(101+2*i)))
	}
	ds := buildOrFatal(t, sets, DS, 5)
	scl := buildOrFatal(t, sets, SCL, 5)
	checkCoverage(t, ds, sets)
	checkCoverage(t, scl, sets)
	qDS := Evaluate(ds, sets)
	qSCL := Evaluate(scl, sets)
	if qSCL.Gini >= qDS.Gini {
		t.Errorf("SCL Gini %.3f should beat DS Gini %.3f on a giant component", qSCL.Gini, qDS.Gini)
	}
	// And DS must have no replication while SCL generally does.
	if ds.Replication() != 1 {
		t.Errorf("DS replication = %g", ds.Replication())
	}
	if qDS.AvgCom > qSCL.AvgCom {
		t.Errorf("DS avgCom %.3f should not exceed SCL avgCom %.3f", qDS.AvgCom, qSCL.AvgCom)
	}
}

func TestSCIDeterministicPerSeed(t *testing.T) {
	sets := figure1()
	a, _ := Build(sets, Options{Algorithm: SCI, K: 2, Seed: 7})
	b, _ := Build(sets, Options{Algorithm: SCI, K: 2, Seed: 7})
	for i := range a.Parts {
		if !a.Parts[i].Tags.Equal(b.Parts[i].Tags) {
			t.Fatal("same seed produced different SCI partitions")
		}
	}
}

func TestEmptyInput(t *testing.T) {
	for _, alg := range []Algorithm{DS, SCC, SCL, SCI, DSHybrid} {
		r := buildOrFatal(t, nil, alg, 3)
		if r.K() != 3 {
			t.Errorf("%s: K = %d", alg, r.K())
		}
		for _, p := range r.Parts {
			if !p.Tags.IsEmpty() || p.Load != 0 {
				t.Errorf("%s: non-empty partition from empty input: %+v", alg, p)
			}
		}
	}
}

func TestInputLoads(t *testing.T) {
	in := NewInput(figure1())
	if in.Total != 21 {
		t.Errorf("Total = %d, want 21", in.Total)
	}
	// Load of {munich,beer,soccer} (index 0): docs containing 0, 1 or 2 =
	// sets {0,1,2}(10) + {1,3}(4) + {0,4}(3) + {2,5}(2) = 19.
	if in.Loads[0] != 19 {
		t.Errorf("load({munich,beer,soccer}) = %d, want 19", in.Loads[0])
	}
	// Load of {beach,sunny} (index 4): {6,7}(1) + {7,8}(1) = 2.
	if in.Loads[4] != 2 {
		t.Errorf("load({beach,sunny}) = %d, want 2", in.Loads[4])
	}
	// LoadOfTags on an arbitrary set.
	if got := in.LoadOfTags(tagset.New(1)); got != 14 {
		t.Errorf("LoadOfTags({beer}) = %d, want 14", got)
	}
	if got := in.LoadOfTags(tagset.New(99)); got != 0 {
		t.Errorf("LoadOfTags(unknown) = %d, want 0", got)
	}
}

func TestEvaluateFigure1TwoPartitions(t *testing.T) {
	// The paper's example partitioning (Section 3): pr1 covers the small
	// component plus {munich,beer,soccer,oktoberfest}, pr2 the rest.
	r := &Result{Algorithm: DS, Parts: []Partition{
		{Tags: tagset.New(0, 1, 2, 4, 6, 7, 8)},
		{Tags: tagset.New(1, 3, 5, 2)},
	}}
	q := Evaluate(r, figure1())
	// Every tagset covered: {0,1,2}⊆pr1, {1,3}⊆pr2, {0,4}⊆pr1, {2,5}⊆pr2,
	// {6,7},{7,8}⊆pr1.
	if q.Coverage != 1 {
		t.Errorf("coverage = %g, want 1", q.Coverage)
	}
	// Tagsets {0,1,2} (10 docs) and {2,5} (2 docs) touch both partitions;
	// {1,3} touches pr2 and pr1 (tag 1 in both) → also both! Recompute:
	// pr1 tags {0,1,2,4,6,7,8}, pr2 {1,2,3,5}.
	// {0,1,2}: both (12... weight 10). {1,3}: pr1 has 1 → both (4).
	// {0,4}: pr1 only (3). {2,5}: both (2). {6,7}: pr1 (1). {7,8}: pr1 (1).
	// total msgs = 2*(10+4+2) + 1*(3+1+1) = 32+5 = 37; notified docs = 21.
	want := 37.0 / 21.0
	if diff := q.AvgCom - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("AvgCom = %g, want %g", q.AvgCom, want)
	}
}

func TestQualityOnUncoveringPartitions(t *testing.T) {
	// A partitioning that misses a tagset must have coverage < 1.
	r := &Result{Algorithm: DS, Parts: []Partition{{Tags: tagset.New(1, 2)}}}
	sets := []stream.WeightedSet{ws(1, 1, 2), ws(1, 3, 4)}
	q := Evaluate(r, sets)
	if q.Coverage != 0.5 {
		t.Errorf("coverage = %g, want 0.5", q.Coverage)
	}
}

func TestPlaceSingleAdditionOverlapPreference(t *testing.T) {
	r := &Result{Algorithm: DS, Parts: []Partition{
		{Tags: tagset.New(1, 2), Load: 100},
		{Tags: tagset.New(3, 4), Load: 1},
	}}
	// {2,5} overlaps partition 0; DS places by overlap despite higher load.
	if p := PlaceSingleAddition(r, tagset.New(2, 5)); p != 0 {
		t.Errorf("DS placement = %d, want 0", p)
	}
	// SCL places by load: partition 1.
	r.Algorithm = SCL
	if p := PlaceSingleAddition(r, tagset.New(2, 5)); p != 1 {
		t.Errorf("SCL placement = %d, want 1", p)
	}
}

func TestPlaceSingleAdditionTieBreaks(t *testing.T) {
	r := &Result{Algorithm: SCC, Parts: []Partition{
		{Tags: tagset.New(1), Load: 10},
		{Tags: tagset.New(2), Load: 5},
	}}
	// {1,2} overlaps both equally → lower load wins.
	if p := PlaceSingleAddition(r, tagset.New(1, 2)); p != 1 {
		t.Errorf("placement = %d, want 1 (lower load)", p)
	}
	if p := PlaceSingleAddition(&Result{}, tagset.New(1)); p != -1 {
		t.Errorf("empty result placement = %d, want -1", p)
	}
}

func TestApply(t *testing.T) {
	r := &Result{Algorithm: DS, Parts: []Partition{{Tags: tagset.New(1), Load: 2}}}
	if err := Apply(r, 0, tagset.New(2, 3), 5); err != nil {
		t.Fatal(err)
	}
	if !r.Parts[0].Tags.Equal(tagset.New(1, 2, 3)) || r.Parts[0].Load != 7 {
		t.Errorf("after apply: %+v", r.Parts[0])
	}
	if err := Apply(r, 5, tagset.New(1), 1); err == nil {
		t.Error("out-of-range apply accepted")
	}
	// After Apply the tagset must be covered.
	if !r.Covers(tagset.New(2, 3)) {
		t.Error("applied tagset not covered")
	}
}

func TestDSHybridSplitsGiantComponent(t *testing.T) {
	// One giant chain dominating the load: plain DS is stuck with Gini ~
	// high at k=4; the hybrid splits it.
	var sets []stream.WeightedSet
	for i := 0; i < 40; i++ {
		sets = append(sets, ws(10, tagset.Tag(i), tagset.Tag(i+1)))
	}
	sets = append(sets, ws(1, 100, 101), ws(1, 102, 103), ws(1, 104, 105))
	ds := buildOrFatal(t, sets, DS, 4)
	hy := buildOrFatal(t, sets, DSHybrid, 4)
	checkCoverage(t, hy, sets)
	qDS := Evaluate(ds, sets)
	qHy := Evaluate(hy, sets)
	if qHy.Gini >= qDS.Gini {
		t.Errorf("hybrid Gini %.3f should beat DS Gini %.3f", qHy.Gini, qDS.Gini)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Parts: []Partition{
		{Tags: tagset.New(1, 2)},
		{Tags: tagset.New(2, 3)},
	}}
	if r.TotalAssignedTags() != 4 || r.DistinctTags() != 3 {
		t.Errorf("tags: total=%d distinct=%d", r.TotalAssignedTags(), r.DistinctTags())
	}
	if rep := r.Replication(); rep != 4.0/3.0 {
		t.Errorf("Replication = %g", rep)
	}
	empty := &Result{}
	if empty.Replication() != 0 {
		t.Error("empty replication != 0")
	}
}

// TestQuickCoverageInvariant fuzzes all algorithms over random windows and
// asserts the coverage invariant plus DS's zero-replication guarantee.
func TestQuickCoverageInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(60)
		sets := make([]stream.WeightedSet, n)
		for i := range sets {
			m := 1 + r.Intn(4)
			tags := make([]tagset.Tag, m)
			for j := range tags {
				tags[j] = tagset.Tag(r.Intn(40))
			}
			sets[i] = stream.WeightedSet{Tags: tagset.New(tags...), Count: int64(1 + r.Intn(20))}
		}
		k := 1 + r.Intn(6)
		for _, alg := range []Algorithm{DS, SCC, SCL, SCI, DSHybrid} {
			res, err := Build(sets, Options{Algorithm: alg, K: k, Seed: int64(trial)})
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			for _, s := range sets {
				if !res.Covers(s.Tags) {
					t.Fatalf("trial %d %s k=%d: %v uncovered", trial, alg, k, s.Tags)
				}
			}
			if alg == DS && res.Replication() != 1 && res.DistinctTags() > 0 {
				t.Fatalf("trial %d: DS replication %g", trial, res.Replication())
			}
			q := Evaluate(res, sets)
			if q.Coverage != 1 {
				t.Fatalf("trial %d %s: Evaluate coverage %g", trial, alg, q.Coverage)
			}
			if q.Gini < 0 || q.Gini >= 1 {
				t.Fatalf("trial %d %s: Gini %g", trial, alg, q.Gini)
			}
			if q.AvgCom < 1 || q.AvgCom > float64(k) {
				t.Fatalf("trial %d %s: AvgCom %g out of [1,k=%d]", trial, alg, q.AvgCom, k)
			}
		}
	}
}

// TestBuildIgnoresInputOrder: every algorithm's answer is a function of the
// window's contents, not of the order a window's map yields its tagsets.
func TestBuildIgnoresInputOrder(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var sets []stream.WeightedSet
	seen := map[tagset.Key]bool{}
	for len(sets) < 300 {
		tags := make([]tagset.Tag, 1+r.Intn(4))
		for j := range tags {
			tags[j] = tagset.Tag(r.Intn(120))
		}
		s := tagset.New(tags...)
		if !seen[s.Key()] {
			seen[s.Key()] = true
			sets = append(sets, stream.WeightedSet{Tags: s, Count: int64(1 + r.Intn(20))})
		}
	}
	shuffled := append([]stream.WeightedSet(nil), sets...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, alg := range []Algorithm{DS, SCC, SCL, SCI, DSHybrid} {
		opts := Options{Algorithm: alg, K: 6, Seed: 3, MaxLoadShare: 0.1}
		a, err := Build(sets, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(shuffled, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: partitions depend on input order:\n%+v\n%+v", alg, a.Parts, b.Parts)
		}
	}
}
