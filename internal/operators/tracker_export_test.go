package operators

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/tagset"
)

// refExport is the periods part of an export taken afresh from the
// brute-force reference: every retained period strictly before `before`,
// its coefficients gathered and sorted by tagset key.
func refExport(r *refTracker, before int64) []PeriodCoefficients {
	var out []PeriodCoefficients
	for _, p := range r.periodList() {
		if p >= before {
			continue
		}
		pc := PeriodCoefficients{Period: p}
		for _, c := range r.periods[p] {
			pc.Coeffs = append(pc.Coeffs, c)
		}
		slices.SortFunc(pc.Coeffs, func(a, b jaccard.Coefficient) int { return tagset.Compare(a.Tags, b.Tags) })
		out = append(out, pc)
	}
	return out
}

// TestExportStateReuseDifferential runs a seeded script of fresh reports,
// CN upgrades, ignored duplicates, reports into older retained periods,
// late reports into pruned ones and prunes, while two goroutines export
// concurrently, and after every step requires ExportStateReusing — full
// and cut before the newest period, as a checkpoint cuts — to equal an
// export gathered afresh, each period's coefficients sorted by tagset key
// on both sides (an export is in table order). A period whose tables took
// no write since its last export is taken from that export, so a missed
// write count on any path shows here as a stale period.
func TestExportStateReuseDifferential(t *testing.T) {
	ops := 1500
	if testing.Short() {
		ops = 600
	}
	for _, tc := range []struct{ shards, keep int }{{1, 3}, {4, 4}, {16, 2}, {4, 0}} {
		rng := rand.New(rand.NewSource(int64(100*tc.shards + tc.keep)))
		tr := NewTrackerWith(tc.shards, 4, 0)
		tr.SetRetention(tc.keep)
		ref := newRefTracker(tc.keep)

		done := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					cut := int64(math.MaxInt64)
					if newest, ok := tr.NewestPeriod(); ok && g == 1 {
						cut = newest
					}
					tr.ExportState(cut)
				}
			}()
		}

		var fresh, upgrades, ignored, older, late, reused int
		// The reuse a checkpoint writer makes of ExportStateReusing: each
		// period's last full export, kept under the write count read before
		// its gather, stands in for a period exported without coefficients.
		type cached struct {
			writes uint64
			coeffs []jaccard.Coefficient
		}
		cache := map[int64]cached{}
		asked := map[int64]uint64{}
		export := func(cut int64) []PeriodCoefficients {
			clear(asked)
			got := tr.ExportStateReusing(cut, func(p int64, writes uint64) bool {
				asked[p] = writes
				e, ok := cache[p]
				return ok && e.writes == writes
			}).Periods
			for i, pc := range got {
				if pc.Coeffs == nil { // reused: a gather returns a non-nil slice
					got[i].Coeffs = cache[pc.Period].coeffs
					reused++
					continue
				}
				slices.SortFunc(pc.Coeffs, func(a, b jaccard.Coefficient) int { return tagset.Compare(a.Tags, b.Tags) })
				cache[pc.Period] = cached{asked[pc.Period], pc.Coeffs}
			}
			return got
		}
		period := int64(1)
		for op := 0; op < ops; op++ {
			if rng.Intn(25) == 0 {
				period++
			}
			p := period
			if rng.Intn(4) == 0 {
				p -= int64(1 + rng.Intn(tc.keep+1))
			}
			a := tagset.Tag(rng.Intn(20))
			c := jaccard.Coefficient{
				Tags: tagset.New(a, a+1+tagset.Tag(rng.Intn(3))),
				J:    float64(rng.Intn(5)) / 4,
				CN:   int64(1 + rng.Intn(6)),
			}
			switch old, ok := ref.periods[p][c.Tags.Key()]; {
			case p <= ref.floor:
				late++
			case ok && c.CN > old.CN:
				upgrades++
			case ok:
				ignored++
			default:
				fresh++
			}
			newest, _ := tr.NewestPeriod()
			if p < newest && p > ref.floor {
				older++
			}
			tr.Execute(coeffTuple(p, c.Tags, c.J, c.CN), nil)
			ref.report(p, c)

			newest, _ = tr.NewestPeriod()
			for _, cut := range []int64{math.MaxInt64, newest} {
				got, want := export(cut), refExport(ref, cut)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards %d keep %d, op %d (report into period %d), cut %d: export\n%v\nfresh\n%v",
						tc.shards, tc.keep, op, p, cut, got, want)
				}
			}
		}
		close(done)
		wg.Wait()
		if fresh == 0 || upgrades == 0 || ignored == 0 || older == 0 || reused == 0 || (tc.keep > 0 && late == 0) {
			t.Errorf("shards %d keep %d: fresh %d, upgrades %d, ignored %d, older %d, late %d, reused %d: a path went unexercised",
				tc.shards, tc.keep, fresh, upgrades, ignored, older, late, reused)
		}
	}
}
