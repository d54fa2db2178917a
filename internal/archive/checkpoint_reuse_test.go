package archive

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/operators"
	"repro/internal/storm"
	"repro/internal/tagset"
	"repro/internal/trend"
)

// TestSectionReuseDifferential runs a seeded script of fresh reports, CN
// upgrades, ignored duplicates, reports into older retained periods, late
// reports into pruned ones and prunes through a Tracker with an evicted
// LRU, and every report through a trend detector, while the dictionary
// grows and is now and then replaced. After every step it writes a
// checkpoint the way the pipeline does — the exports consult one
// SectionCache kept across steps, so unchanged periods come from cache —
// and requires its bytes to equal those encoded from scratch from full
// exports at the same cut, both cut at the newest period and uncut.
func TestSectionReuseDifferential(t *testing.T) {
	ops := 1200
	if testing.Short() {
		ops = 400
	}
	for _, tc := range []struct{ shards, keep int }{{1, 3}, {4, 4}, {16, 2}, {4, 0}} {
		rng := rand.New(rand.NewSource(int64(100*tc.shards + tc.keep)))
		tr := operators.NewTrackerWith(tc.shards, 4, 16)
		tr.SetRetention(tc.keep)
		det, err := trend.NewStream(trend.StreamConfig{Alpha: 0.5, MinSupport: 1, Shards: 4, KeepPeriods: tc.keep})
		if err != nil {
			t.Fatal(err)
		}
		var cache SectionCache
		var dict []string
		var reused, encoded int
		count := func(ok bool) bool {
			if ok {
				reused++
			} else {
				encoded++
			}
			return ok
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
			tr.Execute(storm.Tuple{Stream: operators.StreamCoeff, Values: []interface{}{
				operators.CoeffBatch{Period: p, Coeffs: []jaccard.Coefficient{c}},
			}}, nil)
			det.ObserveBatch(p, []jaccard.Coefficient{c})
			switch {
			case rng.Intn(8) == 0:
				dict = append(dict, fmt.Sprintf("tag%d", len(dict)))
			case rng.Intn(100) == 0:
				dict = []string{fmt.Sprintf("other%d", op)}
			}

			newest, _ := tr.NewestPeriod()
			for _, cut := range []int64{newest, math.MaxInt64} {
				cp := &Checkpoint{ReplayPeriod: cut, Dict: dict}
				st := det.ExportCut(func() int64 { return cut }, func(p int64, w uint64) bool {
					return count(cache.TrendPeriod(p, w))
				})
				cp.Trend = &st
				cp.Tracker = tr.ExportStateReusing(cut, func(p int64, w uint64) bool {
					return count(cache.TrackerPeriod(p, w))
				})
				got := bytes.Join(cache.encode(cp), nil)

				fullTrend := det.ExportState(cut)
				full := &Checkpoint{ReplayPeriod: cut, Dict: dict,
					Tracker: tr.ExportState(cut), Trend: &fullTrend}
				if want := encodeCheckpoint(full); !bytes.Equal(got, want) {
					t.Fatalf("shards %d keep %d, op %d (report into period %d), cut %d: cached encoding (%d bytes) differs from a fresh one (%d bytes)",
						tc.shards, tc.keep, op, p, cut, len(got), len(want))
				}
			}
		}
		if reused == 0 || encoded == 0 {
			t.Errorf("shards %d keep %d: %d period sections reused, %d encoded: a path went unexercised",
				tc.shards, tc.keep, reused, encoded)
		}
	}
}
