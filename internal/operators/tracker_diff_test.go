package operators

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/tagset"
)

// refTracker is the brute-force reference the incremental Tracker is
// differentially tested against: a plain period→key→coefficient table with
// the same retention semantics (keep the newest `keep` period ids; reports
// at or below the highest pruned period are dropped), answering every
// query by gathering and sorting everything.
type refTracker struct {
	keep    int
	floor   int64
	periods map[int64]map[tagset.Key]jaccard.Coefficient
}

func newRefTracker(keep int) *refTracker {
	return &refTracker{
		keep:    keep,
		floor:   math.MinInt64,
		periods: make(map[int64]map[tagset.Key]jaccard.Coefficient),
	}
}

func (r *refTracker) report(period int64, c jaccard.Coefficient) {
	if period <= r.floor {
		return
	}
	m := r.periods[period]
	if m == nil {
		m = make(map[tagset.Key]jaccard.Coefficient)
		r.periods[period] = m
		for r.keep > 0 && len(r.periods) > r.keep {
			oldest := period
			for p := range r.periods {
				if p < oldest {
					oldest = p
				}
			}
			delete(r.periods, oldest)
			if oldest > r.floor {
				r.floor = oldest
			}
		}
	}
	if _, alive := r.periods[period]; !alive {
		return // the reported period was itself the oldest and got pruned
	}
	k := c.Tags.Key()
	if prev, ok := m[k]; ok && c.CN <= prev.CN {
		return
	}
	m[k] = c
}

// topK sorts every retained coefficient and cuts at k (k <= 0: all).
func (r *refTracker) topK(k int) []jaccard.Coefficient {
	var all []jaccard.Coefficient
	for _, m := range r.periods {
		for _, c := range m {
			all = append(all, c)
		}
	}
	sortCoefficients(all)
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

func (r *refTracker) lookup(k tagset.Key) (jaccard.Coefficient, int64, bool) {
	var (
		best  jaccard.Coefficient
		bestP int64
		found bool
	)
	for p, m := range r.periods {
		if c, ok := m[k]; ok && (!found || p > bestP) {
			best, bestP, found = c, p, true
		}
	}
	return best, bestP, found
}

func (r *refTracker) periodList() []int64 {
	out := make([]int64, 0, len(r.periods))
	for p := range r.periods {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sameCoefficients compares two coefficient lists elementwise on the
// ranking triple (J, CN, tagset key) — the only observable identity of a
// coefficient (the reporting period is not part of the value).
func sameCoefficients(t *testing.T, label string, got, want []jaccard.Coefficient) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d coefficients, reference gives %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].J != want[i].J || got[i].CN != want[i].CN || got[i].Tags.Key() != want[i].Tags.Key() {
			t.Fatalf("%s[%d] = {J:%g CN:%d %v}, reference {J:%g CN:%d %v}",
				label, i, got[i].J, got[i].CN, got[i].Tags,
				want[i].J, want[i].CN, want[i].Tags)
		}
	}
}

// TestTrackerDifferential drives the incremental sharded Tracker and the
// brute-force reference through the same randomized report/update/evict
// sequences — deliberately dense in tied J values, re-reported pairs
// (duplicate upgrades and downgrades) and late reports for pruned periods —
// and checks that TopK (below, at and beyond the maintained bound),
// Periods, Lookup and All agree at every checkpoint.
func TestTrackerDifferential(t *testing.T) {
	cases := []struct {
		name                string
		keep, shards, bound int
	}{
		{"unbounded-4shards", 0, 4, 8},
		{"keep3-1shard", 3, 1, 4},
		{"keep2-8shards", 2, 8, 16},
		{"keep4-16shards-tinybound", 4, 16, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tr := NewTrackerWith(tc.shards, tc.bound, 0)
				tr.SetRetention(tc.keep)
				ref := newRefTracker(tc.keep)

				period := int64(1)
				for op := 0; op < 3000; op++ {
					if rng.Intn(40) == 0 {
						period += int64(1 + rng.Intn(2)) // advance, sometimes skipping an id
					}
					p := period
					if rng.Intn(8) == 0 {
						p -= int64(rng.Intn(6)) // old, possibly pruned period
					}
					// A small tag pool forces re-reported pairs; few distinct
					// J and CN values force ranking ties.
					a := tagset.Tag(rng.Intn(10))
					b := a + 1 + tagset.Tag(rng.Intn(3))
					c := jaccard.Coefficient{
						Tags: tagset.New(a, b),
						J:    float64(rng.Intn(5)) / 4,
						CN:   int64(1 + rng.Intn(5)),
					}
					tr.Execute(coeffTuple(p, c.Tags, c.J, c.CN), nil)
					ref.report(p, c)

					if op%211 == 0 || op == 2999 {
						for _, k := range []int{1, 2, tc.bound, tc.bound + 5, 0} {
							sameCoefficients(t, "TopK", tr.TopK(k), ref.topK(k))
						}
						gotP, wantP := tr.Periods(), ref.periodList()
						if len(gotP) != len(wantP) {
							t.Fatalf("Periods = %v, reference %v", gotP, wantP)
						}
						for i := range wantP {
							if gotP[i] != wantP[i] {
								t.Fatalf("Periods = %v, reference %v", gotP, wantP)
							}
						}
						for probe := 0; probe < 8; probe++ {
							a := tagset.Tag(rng.Intn(10))
							key := tagset.New(a, a+1+tagset.Tag(rng.Intn(3))).Key()
							gc, gp, gok := tr.Lookup(key)
							wc, wp, wok := ref.lookup(key)
							if gok != wok || gp != wp || gc.J != wc.J || gc.CN != wc.CN {
								t.Fatalf("Lookup(%v): got {%g %d p%d %v}, reference {%g %d p%d %v}",
									key.Set(), gc.J, gc.CN, gp, gok, wc.J, wc.CN, wp, wok)
							}
						}
					}
				}

				// Final full-state agreement, period by period.
				for _, p := range ref.periodList() {
					wantRep := make([]jaccard.Coefficient, 0, len(ref.periods[p]))
					for _, c := range ref.periods[p] {
						wantRep = append(wantRep, c)
					}
					sortCoefficients(wantRep)
					sameCoefficients(t, "Report", tr.Report(p), wantRep)
				}
				if st := tr.StatsSnapshot(); tc.keep > 0 && st.PrunedPeriods == 0 {
					t.Error("differential run never pruned a period")
				}
			}
		})
	}
}

// TestTrackerOlderBlockDifferential checks the shards' older blocks after
// every operation: TopK and ConsistentView within the bound must equal the
// reference while periods open, fold into the block, are evicted, receive
// late reports and upgrades, and the bound is raised mid-run.
func TestTrackerOlderBlockDifferential(t *testing.T) {
	for _, keep := range []int{0, 3, 12} {
		for _, shards := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(keep*10 + shards)))
			tr := NewTrackerWith(shards, 3, 0)
			tr.SetRetention(keep)
			ref := newRefTracker(keep)
			bound, period := 3, int64(1)
			for op := 0; op < 1500; op++ {
				switch {
				case op == 700:
					bound = 6
					tr.EnsureTopKBound(bound)
				case rng.Intn(30) == 0:
					period++
				}
				p := period
				if rng.Intn(6) == 0 {
					p -= int64(rng.Intn(4))
				}
				a := tagset.Tag(rng.Intn(12))
				c := jaccard.Coefficient{
					Tags: tagset.New(a, a+1+tagset.Tag(rng.Intn(3))),
					J:    float64(rng.Intn(5)) / 4,
					CN:   int64(1 + rng.Intn(5)),
				}
				tr.Execute(coeffTuple(p, c.Tags, c.J, c.CN), nil)
				ref.report(p, c)
				for _, k := range []int{1, bound} {
					sameCoefficients(t, "TopK", tr.TopK(k), ref.topK(k))
				}
				if op%7 == 0 {
					top, _, _ := tr.ConsistentView(bound)
					sameCoefficients(t, "ConsistentView", top, ref.topK(bound))
				}
			}
			if len(ref.periods) < min(keep, 3) || (keep == 0 && len(ref.periods) < 20) {
				t.Fatalf("keep %d: only %d periods retained; the blocks were barely exercised", keep, len(ref.periods))
			}
		}
	}
}
