package operators

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/tagset"
)

// evictPeriod is dropPeriod as the reference prune ranges over it: the
// evicted period's coefficients by key. The caller holds the shard lock.
func (s *trackerShard) evictPeriod(p int64) iter.Seq2[tagset.Key, jaccard.Coefficient] {
	t := s.dropPeriod(p)
	return func(yield func(tagset.Key, jaccard.Coefficient) bool) {
		for slot := range int32(t.Len()) {
			c := coefficient(t.Entry(slot))
			if !yield(c.Tags.Key(), c) {
				return
			}
		}
	}
}

// pointerFree reports whether a value of type t holds no pointer: the GC
// does not scan an array of such values.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.String, reflect.Func,
		reflect.Chan, reflect.Interface, reflect.UnsafePointer:
		return false
	}
	return true
}

// TestTrackerTableStoresNoPointer requires every type a Tracker period table
// stores — its index keys and values, its entries, its arena and its heap,
// the entries and arena as what the chunks of their directories store — to
// hold no pointer, so the GC never traces a retained coefficient.
func TestTrackerTableStoresNoPointer(t *testing.T) {
	typ := reflect.TypeFor[coeffTable]()
	for i := range typ.NumField() {
		f := typ.Field(i)
		var stored []reflect.Type
		switch f.Type.Kind() {
		case reflect.Map:
			stored = []reflect.Type{f.Type.Key(), f.Type.Elem()}
		case reflect.Slice:
			// A directory of chunks ([][]T) stores what its chunks do.
			elem := f.Type.Elem()
			if elem.Kind() == reflect.Slice {
				elem = elem.Elem()
			}
			stored = []reflect.Type{elem}
		}
		for _, st := range stored {
			if !pointerFree(st) {
				t.Errorf("field %s stores %v, which holds a pointer", f.Name, st)
			}
		}
	}
}

// aliasTracker is a Tracker holding three periods of coefficients over a
// small tag universe, with retention 2 and an evicted LRU, so that one
// period has been pruned into the LRU.
func aliasTracker() *Tracker {
	tr := NewTrackerWith(4, 8, 1000)
	tr.SetRetention(2)
	rng := rand.New(rand.NewSource(3))
	for p := int64(1); p <= 3; p++ {
		var cs []jaccard.Coefficient
		for range 300 {
			a := tagset.Tag(rng.Intn(60))
			cs = append(cs, jaccard.Coefficient{
				Tags: tagset.New(a, a+1+tagset.Tag(rng.Intn(40)), tagset.Tag(100+rng.Intn(3))),
				J:    float64(rng.Intn(8)) / 8, CN: int64(1 + rng.Intn(9)),
			})
		}
		tr.Execute(coeffBatchTuple(p, cs...), nil)
	}
	return tr
}

// trackerAnswers renders everything the Tracker answers, with its tags
// copied out: the full export, TopK and a Report per retained period.
func trackerAnswers(tr *Tracker) string {
	render := func(cs []jaccard.Coefficient) string {
		out := ""
		for _, c := range cs {
			out += c.Tags.String() + " "
		}
		return out + "\n"
	}
	st := tr.ExportState(math.MaxInt64)
	out := render(tr.TopK(10))
	for _, pc := range st.Periods {
		out += render(pc.Coeffs) + render(tr.Report(pc.Period))
	}
	for _, e := range st.Evicted {
		out += e.Coeff.Tags.String() + " "
	}
	return out
}

// TestTrackerReadsDoNotAlias appends to the tags of every coefficient that
// TopK, Report and ExportState hand out. Those tags are read-only windows
// of the tables' arenas; the appends must copy them, leaving the Tracker's
// answers unchanged.
func TestTrackerReadsDoNotAlias(t *testing.T) {
	tr := aliasTracker()
	want := trackerAnswers(tr)
	scribble := func(cs []jaccard.Coefficient) {
		for _, c := range cs {
			_ = append(c.Tags, 1<<31, 1<<31, 1<<31)
		}
	}
	scribble(tr.TopK(10))
	scribble(tr.TopK(0))
	st := tr.ExportState(math.MaxInt64)
	for _, pc := range st.Periods {
		scribble(tr.Report(pc.Period))
		scribble(pc.Coeffs)
	}
	if got := trackerAnswers(tr); got != want {
		t.Fatalf("appending to returned tags changed the Tracker:\n got %s\nwant %s", got, want)
	}
}

// TestPruneLRUOwnsTags requires the evicted LRU to hold its own copy of
// every coefficient's tags, not a window of the evicted table's arena,
// which would keep the whole arena alive for as long as one pair stays.
func TestPruneLRUOwnsTags(t *testing.T) {
	tr := aliasTracker()
	tables := make([]*coeffTable, len(tr.shards))
	for i, s := range tr.shards {
		tables[i] = s.periods[2]
	}
	tr.Execute(coeffBatchTuple(4, jaccard.Coefficient{Tags: tagset.New(1, 2), J: 1, CN: 1}), nil) // prunes period 2
	if _, ok := tr.shards[0].periods[2]; ok {
		t.Fatal("period 2 was not pruned")
	}
	checked := 0
	for _, tb := range tables {
		for slot := range int32(tb.Len()) {
			tags, _ := tb.Entry(slot)
			el, ok := tr.lru.idx[tags.Key()]
			if !ok {
				continue
			}
			checked++
			if held := el.Value.(*evictedPair).c.Tags; &held[0] == &tags[0] {
				t.Fatalf("the LRU's %v shares the evicted table's arena", held)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no evicted pair reached the LRU")
	}
}

// TestTrackerLookupAllocations pins Lookup on a warm Tracker, hits in every
// retained period and misses alike, to no allocation. The collector is off
// while it counts: a cycle allocates on its own account.
func TestTrackerLookupAllocations(t *testing.T) {
	tr := aliasTracker()
	var keys []tagset.Key
	for _, p := range tr.Periods() {
		for _, c := range tr.Report(p)[:20] {
			keys = append(keys, c.Tags.Key())
		}
	}
	keys = append(keys, tagset.New(5000, 5001).Key())
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(20, func() {
		for _, k := range keys {
			tr.Lookup(k)
		}
	}); avg != 0 {
		t.Fatalf("%d lookups allocate %.1f times, want 0", len(keys), avg)
	}
	for _, k := range keys[:len(keys)-1] {
		c, _, ok := tr.Lookup(k)
		if !ok || !slices.Equal(c.Tags, k.Set()) {
			t.Fatalf("Lookup(%v) = %v, %v", k.Set(), c, ok)
		}
	}
}

// TestPrunedTableServesNextPeriod is retention without rebuild, same
// answers: with retention 1, each new period prunes the last one, and every
// shard's pruned table is renewed for the new period. What TopK, Report
// and ExportState handed out for a period must read the same after its
// tables were renewed and refilled, and the Tracker must answer for the
// new period exactly as one that never held the old.
func TestPrunedTableServesNextPeriod(t *testing.T) {
	batch := func(seed int64) []jaccard.Coefficient {
		rng := rand.New(rand.NewSource(seed))
		cs := make([]jaccard.Coefficient, 400)
		for i := range cs {
			a := tagset.Tag(rng.Intn(80))
			cs[i] = jaccard.Coefficient{Tags: tagset.New(a, a+1+tagset.Tag(rng.Intn(50))), J: float64(rng.Intn(8)) / 8, CN: int64(1 + rng.Intn(9))}
		}
		return cs
	}
	render := func(cs []jaccard.Coefficient) []string {
		out := make([]string, len(cs))
		for i, c := range cs {
			out[i] = c.Tags.String() + "=" + strconv.FormatFloat(c.J, 'g', -1, 64) + "/" + strconv.FormatInt(c.CN, 10)
		}
		return out
	}
	same := func(label string, got, want []string) {
		t.Helper()
		if i := slices.Compare(got, want); i != 0 {
			n := 0
			for n < min(len(got), len(want)) && got[n] == want[n] {
				n++
			}
			t.Fatalf("%s: %d entries, want %d; first difference at %d", label, len(got), len(want), n)
		}
	}
	tr := NewTrackerWith(4, 8, 0)
	tr.SetRetention(1)
	for p := int64(1); p <= 4; p++ {
		tr.Execute(coeffBatchTuple(p, batch(p)...), nil)
		top, report, export := tr.TopK(10), tr.Report(p), tr.ExportState(math.MaxInt64).Periods[0].Coeffs
		want := slices.Concat(render(top), render(report), render(export))
		tables := make([]*coeffTable, len(tr.shards))
		for i, s := range tr.shards {
			tables[i] = s.periods[p]
		}

		tr.Execute(coeffBatchTuple(p+1, batch(p+1)...), nil) // prunes p, renews its tables
		for i, s := range tr.shards {
			if s.periods[p] != nil || s.periods[p+1] != tables[i] {
				t.Fatalf("period %d, shard %d: the next period's table is not the pruned one", p, i)
			}
		}
		same(fmt.Sprintf("period %d: what the Tracker handed out, after its tables were renewed", p),
			slices.Concat(render(top), render(report), render(export)), want)
		fresh := NewTrackerWith(4, 8, 0)
		fresh.Execute(coeffBatchTuple(p+1, batch(p+1)...), nil)
		same(fmt.Sprintf("period %d: renewed tables against new ones", p+1),
			[]string{trackerAnswers(tr)}, []string{trackerAnswers(fresh)})
		same(fmt.Sprintf("period %d: Report on renewed tables against new ones", p+1),
			render(tr.Report(p+1)), render(fresh.Report(p+1)))
	}
}

// TestSpareTableAllocations pins what opening a period on a spare costs:
// a shard whose last period was pruned opens the next one on that table,
// renewed, and allocates only its fresh arena: for 600 tags, a first chunk
// that doubles from 8 tags to 1 024 (8 allocations). A new table costs its
// header, index, heap and two chunk directories besides, and a first entry
// chunk that doubles from 8 entries to 512 (20 in all).
func TestSpareTableAllocations(t *testing.T) {
	cs := make([]jaccard.Coefficient, 300)
	for i := range cs {
		cs[i] = jaccard.Coefficient{Tags: tagset.New(tagset.Tag(i), tagset.Tag(i+1000)), J: 0.5, CN: int64(1 + i%7)}
	}
	run := make([]int32, len(cs))
	for i := range run {
		run[i] = int32(i)
	}
	accepted := make([]bool, len(cs))
	for _, spare := range []bool{true, false} {
		s := NewTrackerWith(1, 8, 0).shards[0]
		period := int64(1)
		s.reportRun(period, cs, run, accepted)
		next := func() {
			s.mu.Lock()
			t := s.dropPeriod(period)
			if spare {
				s.spare = t
			}
			s.mu.Unlock()
			period++
			if n, _, _ := s.reportRun(period, cs, run, accepted); n != len(cs) {
				panic("a fresh period did not take every report")
			}
		}
		next()
		gc := debug.SetGCPercent(-1)
		avg := testing.AllocsPerRun(5, next)
		debug.SetGCPercent(gc)
		if want := map[bool]float64{true: 8, false: 20}[spare]; avg != want {
			t.Errorf("spare %v: opening a period of %d reports allocates %.1f times, want %.0f", spare, len(cs), avg, want)
		}
	}
}
