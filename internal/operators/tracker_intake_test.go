package operators

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sort"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/storm"
	"repro/internal/tagset"
)

// prunePeriodReference is prunePeriod as it stood before it selected: gather
// the whole period, sort all of it by key, add every entry to the LRU. The
// selection must leave the LRU exactly as this does.
func prunePeriodReference(tr *Tracker, p int64) {
	type evictedEntry struct {
		key tagset.Key
		c   jaccard.Coefficient
	}
	var evicted []evictedEntry
	for _, s := range tr.shards {
		s.mu.Lock()
		m := s.evictPeriod(p)
		s.mu.Unlock()
		for k, c := range m {
			evicted = append(evicted, evictedEntry{key: k, c: c})
		}
	}
	sort.Slice(evicted, func(i, j int) bool { return evicted[i].key < evicted[j].key })
	for _, e := range evicted {
		tr.lru.add(e.key, e.c, p)
	}
}

// TestPrunePeriodSelectionMatchesFullSort drives two Trackers through the
// same reports, lookups and prunes — one pruning by selection, one by the
// reference — over periods smaller than, equal to and larger than the LRU,
// drawn from one small key universe so consecutive prunes meet their own
// keys in the LRU, and requires the LRU contents, their recency order and
// every counter to agree after each prune.
func TestPrunePeriodSelectionMatchesFullSort(t *testing.T) {
	const lruCap = 64
	sizes := []int{10, lruCap, 200, lruCap - 1, lruCap + 1, 3, 300, 40, 0, 150}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewTrackerWith(8, 16, lruCap), NewTrackerWith(8, 16, lruCap)
		pair := func(i int) tagset.Set { return tagset.New(tagset.Tag(i), tagset.Tag(i+1+i%7*300)) }

		for p, n := range sizes {
			period := int64(p + 1)
			var cs []jaccard.Coefficient
			for _, i := range rng.Perm(400)[:n] {
				cs = append(cs, jaccard.Coefficient{Tags: pair(i), J: rng.Float64(), CN: int64(1 + rng.Intn(9))})
			}
			if n > 0 {
				got.Execute(coeffBatchTuple(period, cs...), nil)
				want.Execute(coeffBatchTuple(period, cs...), nil)
			}
		}
		for p := range sizes {
			period := int64(p + 1)
			got.prunePeriod(period)
			prunePeriodReference(want, period)

			label := fmt.Sprintf("seed %d after pruning period %d (%d entries)", seed, period, sizes[p])
			ge, we := got.ExportState(math.MaxInt64).Evicted, want.ExportState(math.MaxInt64).Evicted
			if !reflect.DeepEqual(ge, we) {
				t.Fatalf("%s: LRU contents or order differ\n got %v\nwant %v", label, ge, we)
			}
			// Lookups touch the recency list and the hit/miss counters the
			// next prune builds on; both sides make the same ones.
			for i := 0; i < 30; i++ {
				k := pair(rng.Intn(400)).Key()
				gc, gp, gev, gok := got.LookupDetail(k)
				wc, wp, wev, wok := want.LookupDetail(k)
				if gok != wok || gev != wev || gp != wp || gc.J != wc.J || gc.CN != wc.CN {
					t.Fatalf("%s: Lookup(%v) = %+v/%d/%v/%v, want %+v/%d/%v/%v",
						label, k.Set(), gc, gp, gev, gok, wc, wp, wev, wok)
				}
			}
			if gs, ws := got.StatsSnapshot(), want.StatsSnapshot(); gs != ws {
				t.Fatalf("%s: stats differ\n got %+v\nwant %+v", label, gs, ws)
			}
		}
		if st := got.StatsSnapshot(); st.EvictedLen != lruCap || st.EvictedHits == 0 || st.EvictedMisses == 0 {
			t.Fatalf("seed %d: run not representative: %+v", seed, st)
		}
	}
}

// discard is a collector that drops what it is given, so the allocation
// pins below count the Tracker's own allocations only.
type discard struct{}

func (discard) Emit(storm.Tuple)                     {}
func (discard) EmitDirect(storm.TaskID, storm.Tuple) {}

// TestTrackerIntakeAllocations pins the intake path's allocation budget
// with trend emission on: a batch of reports the tables already hold costs
// nothing, and a batch of fresh ones costs the TrendBatch tuple and one
// new table per shard for the new period, nothing per coefficient (the
// accepted reports are compacted into the batch itself). A shard's table of
// up to 256 reports and 1 024 tags is 19 allocations: header, index, heap,
// two chunk directories, and first chunks that double from 8 to 256 entries
// and from 8 to 1 024 tags; each further 256 reports is one more entry
// chunk. The batch's 1 000 reports of 3 tags fall on the 4 shards by their
// folds' route, so the budget is counted from each shard's load. The
// collector is off while it counts, as in TestCalculatorFlushAllocations.
func TestTrackerIntakeAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 1000
	batch := func(period int64) storm.Tuple {
		cs := make([]jaccard.Coefficient, n)
		for i := range cs {
			cs[i] = jaccard.Coefficient{Tags: tagset.New(tagset.Tag(i), tagset.Tag(i+1), tagset.Tag(i+2000)), J: 0.5, CN: 5}
		}
		return coeffBatchTuple(period, cs...)
	}
	tr := NewTrackerWith(4, 8, 0)
	tr.EnableTrendEmit()
	var out discard

	dup := batch(1)
	tr.Execute(dup, out)
	if avg := testing.AllocsPerRun(10, func() { tr.Execute(dup, out) }); avg != 0 {
		t.Errorf("an all-duplicate batch of %d allocates %.1f times, want 0", n, avg)
	}
	if dups := tr.StatsSnapshot().Duplicates; dups != 11*n {
		t.Fatalf("duplicates = %d, want %d: the batches were not all duplicates", dups, 11*n)
	}

	const runs = 5
	fresh := make([]storm.Tuple, 0, runs+1)
	for p := int64(2); len(fresh) < cap(fresh); p++ {
		fresh = append(fresh, batch(p))
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		tr.Execute(fresh[next], out)
		next++
	})
	perBatch := 2 // the TrendBatch tuple
	load := make([]int, len(tr.shards))
	for _, c := range fresh[0].Values[0].(CoeffBatch).Coeffs {
		load[routeSet(c.Tags)&tr.mask]++
	}
	for _, l := range load {
		perBatch += 19 + (l-1)/256
	}
	if avg > float64(perBatch) {
		t.Errorf("a fresh batch of %d allocates %.1f times, want at most %d", n, avg, perBatch)
	}
	if st := tr.StatsSnapshot(); st.Retained != (runs+2)*n {
		t.Fatalf("retained = %d, want %d: the batches were not all fresh", st.Retained, (runs+2)*n)
	}
}

// consume is a collector that consumes what it is given as the Tracker and
// Trend tasks do: it releases each batch's reference of its report buffer.
type consume struct{}

func (consume) Emit(t storm.Tuple) {
	switch msg := t.Values[0].(type) {
	case CoeffBatch:
		msg.buf.release()
	case TrendBatch:
		msg.buf.release()
	}
}

func (c consume) EmitDirect(_ storm.TaskID, t storm.Tuple) { c.Emit(t) }

// TestCalculatorFlushAllocations pins a period flush's allocations to a
// constant for 1 and 4 Tracker tasks, with every batch consumed before the
// next flush, as in steady state: the report buffer comes back and is
// written over, so a flush allocates no report array and no arena, only
// the grouping's two small arrays with more than one task and one tuple per
// sub-batch, the same for a period of 40 documents as for one of 2 000.
// The flush's coefficients are grouped in place and their tags share the
// arena, so nothing is allocated per coefficient. The collector is off
// while it counts: a cycle allocates on its own account and would be
// counted too.
func TestCalculatorFlushAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(3))
	docs := make([]tagset.Set, 2000)
	for i := range docs {
		tags := make([]tagset.Tag, 2+rng.Intn(4))
		for j := range tags {
			tags[j] = tagset.Tag(rng.Intn(400))
		}
		docs[i] = tagset.New(tags...)
	}
	for _, tasks := range []int{1, 4} {
		c := NewCalculator(Config{ReportEvery: 1000})
		c.trackerTasks = tasks
		var out consume
		period := func(n int) func() {
			return func() {
				for _, d := range docs[:n] {
					c.table.Observe(d)
				}
				c.flush(out, 0, 0)
			}
		}
		period(len(docs))() // grows the table, the report buffer and the grouping scratch once
		small := testing.AllocsPerRun(5, period(40))
		large := testing.AllocsPerRun(5, period(len(docs)))
		if small != large {
			t.Errorf("%d Tracker tasks: a flush allocates %.1f times after 40 documents, %.1f after %d",
				tasks, small, large, len(docs))
		}
		if want := map[int]float64{1: 2, 4: 2 + 4*2}[tasks]; large > want {
			t.Errorf("%d Tracker tasks: a flush allocates %.1f times, want at most %.0f", tasks, large, want)
		}
		if n := len(c.reports.free); n != 1 {
			t.Errorf("%d Tracker tasks: %d report buffers after consumed flushes, want 1", tasks, n)
		}
	}
}
