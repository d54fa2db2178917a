package topselect

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/tagset"
)

// coeff is the table value of the differential: the Tracker ranks it by
// descending J then descending CN, the trend detector (as a score) by
// descending J alone.
type coeff struct {
	J  float64
	CN int64
}

var rankings = []struct {
	name string
	rank func(a, b coeff) int
}{
	{"J,CN", func(a, b coeff) int {
		if c := cmp.Compare(b.J, a.J); c != 0 {
			return c
		}
		return cmp.Compare(b.CN, a.CN)
	}},
	{"score", func(a, b coeff) int { return cmp.Compare(b.J, a.J) }},
}

// entryOf is one table entry as checkTable compares them: its key stands in
// for its tags, which Key orders as tagset.Compare does.
type entryOf struct {
	Key   tagset.Key
	Value coeff
}

// checkTable requires the heap to be a valid min-heap (root ranks last)
// holding exactly the best min(bound, n) entries of a sort of everything.
func checkTable(t *testing.T, label string, tb *Table[coeff], bound int, rank func(a, b coeff) int) {
	t.Helper()
	byRank := func(a, b entryOf) int {
		if c := rank(a.Value, b.Value); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	}
	at := func(slot int32) entryOf {
		tags, v := tb.Entry(slot)
		return entryOf{Key: tags.Key(), Value: v}
	}
	top := make([]entryOf, 0, len(tb.Top()))
	for _, slot := range tb.Top() {
		top = append(top, at(slot))
	}
	for i := 1; i < len(top); i++ {
		if byRank(top[i], top[(i-1)/2]) > 0 {
			t.Fatalf("%s: heap order broken at slot %d", label, i)
		}
	}
	want := make([]entryOf, 0, tb.Len())
	for slot := range int32(tb.Len()) {
		want = append(want, at(slot))
	}
	slices.SortFunc(want, byRank)
	want = want[:min(bound, len(want))]
	got := slices.SortedFunc(slices.Values(top), byRank)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: heap holds\n %v\nsort-everything top %d is\n %v", label, got, bound, want)
	}
}

// TestTableMatchesSortEverything drives per-period tables through random
// fresh puts, CN upgrades (which may lower J), demotions of kept entries,
// bound raises and period evictions — keys from a small pool and values on
// a coarse grid, so ranks tie constantly — under both rankings and bounds
// from 1 to beyond the key pool, and after every operation requires each
// table's heap to equal the sort-everything top bound.
func TestTableMatchesSortEverything(t *testing.T) {
	const keys = 24
	for _, r := range rankings {
		for _, bound := range []int{1, 2, 3, 8, 64} {
			t.Run(fmt.Sprintf("%s/bound=%d", r.name, bound), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(bound)))
				key := func() tagset.Set { return tagset.New(tagset.Tag(rng.Intn(keys))) }
				put := func(tb *Table[coeff], k tagset.Set, v coeff) bool { return tb.Put(tb.Find(Fold(k), k), k, v) }
				value := func(cn int64) coeff { return coeff{J: float64(rng.Intn(5)) / 4, CN: cn} }
				bounds := map[int64]int{}
				tables := map[int64]*Table[coeff]{}
				demotions, rebuilds := 0, 0
				for op := 0; op < 4000; op++ {
					p := int64(rng.Intn(3))
					if tables[p] == nil {
						tables[p] = NewTable(bound, 0, r.rank)
						bounds[p] = bound
					}
					tb := tables[p]
					var label string
					switch n := rng.Intn(20); {
					case n == 0:
						label = "evict"
						delete(tables, p)
					case n == 1:
						label = "raise"
						bounds[p]++
						tb.SetBound(bounds[p])
					case n < 6 && len(tb.Top()) > 0:
						// Demote a kept entry: the case only a rebuild can
						// repair when others are excluded.
						label = "demote"
						k, worse := tb.Entry(tb.Top()[rng.Intn(len(tb.Top()))])
						worse.J -= float64(1+rng.Intn(2)) / 4
						demotions++
						if put(tb, k, worse) {
							rebuilds++
						}
					case n < 12:
						label = "upgrade"
						k := key()
						prev := coeff{CN: 1}
						if slot, ok := tb.Find(Fold(k), k).Slot(); ok {
							_, prev = tb.Entry(slot)
						}
						if put(tb, k, value(prev.CN+1)) {
							rebuilds++
						}
					default:
						label = "put"
						if put(tb, key(), value(int64(1+rng.Intn(5)))) {
							rebuilds++
						}
					}
					for _, q := range slices.Sorted(maps.Keys(tables)) {
						checkTable(t, fmt.Sprintf("op %d (%s), period %d", op, label, q), tables[q], bounds[q], r.rank)
					}
				}
				if bound < keys && (demotions == 0 || rebuilds == 0) {
					t.Fatalf("run not representative: %d demotions, %d rebuilds", demotions, rebuilds)
				}
			})
		}
	}
}

// tinyChunks makes a Table's chunks 16 entries and 32 tags until the test
// ends, so that a few dozen entries cross entry chunks, grow the first
// chunks, and often find too little room for their tags at the end of an
// arena chunk.
func tinyChunks(t testing.TB) {
	e, g := entryShift, tagShift
	entryShift, tagShift = 4, 5
	t.Cleanup(func() { entryShift, tagShift = e, g })
}

// TestTableRenew fills a table, keeps the tags of every entry it handed
// out, renews it with a larger bound and fills it again from other
// tagsets, alongside a new table put through the same operations, on tiny
// chunks. The renewed table must answer exactly as the new one — heap,
// entries, sizes and write count — and every tags slice handed out before
// the renewal must still read as it did.
func TestTableRenew(t *testing.T) {
	tinyChunks(t)
	for _, r := range rankings {
		rng := rand.New(rand.NewSource(5))
		fill := func(lo tagset.Tag, tables ...*Table[coeff]) {
			for range 300 {
				k := tagset.New(lo+tagset.Tag(rng.Intn(60)), lo+100+tagset.Tag(rng.Intn(60)))
				v := coeff{J: float64(rng.Intn(5)) / 4, CN: int64(1 + rng.Intn(5))}
				for _, tb := range tables {
					tb.Put(tb.Find(Fold(k), k), k, v)
				}
			}
		}
		tb := NewTable(4, 0, r.rank)
		fill(0, tb)
		var handed []tagset.Set
		var keys []tagset.Key
		for slot := range int32(tb.Len()) {
			tags, _ := tb.Entry(slot)
			handed, keys = append(handed, tags), append(keys, tags.Key())
		}

		tb.Renew(8, tb.Len())
		if tb.Len() != 0 || tb.Writes() != 0 || len(tb.Top()) != 0 {
			t.Fatalf("%s: renewed table holds %d entries, %d heap slots, %d writes", r.name, tb.Len(), len(tb.Top()), tb.Writes())
		}
		fresh := NewTable(8, 0, r.rank)
		fill(1000, tb, fresh)
		checkTable(t, r.name+" renewed", tb, 8, r.rank)
		if tb.Len() != fresh.Len() || tb.Writes() != fresh.Writes() || !slices.Equal(tb.Top(), fresh.Top()) {
			t.Fatalf("%s: renewed table has %d entries, %d writes, heap %v; a new one %d, %d, %v",
				r.name, tb.Len(), tb.Writes(), tb.Top(), fresh.Len(), fresh.Writes(), fresh.Top())
		}
		for slot := range int32(tb.Len()) {
			gt, gv := tb.Entry(slot)
			wt, wv := fresh.Entry(slot)
			if !gt.Equal(wt) || gv != wv {
				t.Fatalf("%s: slot %d holds %v %v, a new table %v %v", r.name, slot, gt, gv, wt, wv)
			}
			if got := tb.Find(Fold(wt), wt); got.slot != slot {
				t.Fatalf("%s: Find(%v) = slot %d, want %d", r.name, wt, got.slot, slot)
			}
		}
		for _, old := range [][2]tagset.Tag{{0, 100}, {59, 159}} {
			if s := tagset.New(old[0], old[1]); tb.Find(Fold(s), s).slot >= 0 {
				t.Fatalf("%s: renewed table still finds %v of the period before", r.name, s)
			}
		}
		for i, s := range handed {
			if s.Key() != keys[i] {
				t.Fatalf("%s: tags handed out before the renewal changed: %v, was %v", r.name, s, keys[i].Set())
			}
		}
	}
}

// indexBuckets is how many buckets x allocated. The index exports no
// statistic of its size, so the test reads its bucket array's length.
func indexBuckets(x *tagset.FoldIndex) int {
	return reflect.ValueOf(x).Elem().FieldByName("buckets").Len()
}

// TestRenewedTableKeepsItsCapacity is the Tracker's steady state on one
// table: renewed for each period's entry count and refilled with the same
// entries, a table must keep the entry chunks (the same arrays), their
// capacities and the number of index buckets it had after the first
// period, so that a period no larger than the last allocates nothing but
// its arena. It reads the capacities, not an allocation count, which would
// floor a growth that recurs only every few periods to zero.
func TestRenewedTableKeepsItsCapacity(t *testing.T) {
	tinyChunks(t)
	rng := rand.New(rand.NewSource(9))
	sets := make([]tagset.Set, 500)
	for i := range sets {
		sets[i] = tagset.New(tagset.Tag(i), 1000+tagset.Tag(rng.Intn(1000)), 3000+tagset.Tag(rng.Intn(1000)))
	}
	tb := NewTable(8, 0, rankings[0].rank)
	shape := func() ([]int, []*entry[coeff]) {
		caps, arrays := []int{indexBuckets(&tb.index)}, []*entry[coeff](nil)
		for _, ch := range tb.entries {
			caps, arrays = append(caps, cap(ch)), append(arrays, &ch[:1][0])
		}
		return caps, arrays
	}
	var want []int
	var wantArrays []*entry[coeff]
	for period := range 6 {
		if period > 0 {
			tb.Renew(8, tb.Len())
		}
		for i, s := range sets {
			tb.Put(tb.Find(Fold(s), s), s, coeff{J: float64(i%7) / 7, CN: int64(i)})
		}
		if tb.Len() != len(sets) {
			t.Fatalf("period %d: table holds %d entries, want %d", period, tb.Len(), len(sets))
		}
		got, arrays := shape()
		if want == nil {
			want, wantArrays = got, arrays
		} else if !slices.Equal(got, want) {
			t.Fatalf("period %d: index buckets and entry chunk capacities %v, after the first period %v", period, got, want)
		} else if !slices.Equal(arrays, wantArrays) {
			t.Fatalf("period %d: the renewed table allocated new entry chunks", period)
		}
	}
	if len(want) < 3 {
		t.Fatalf("run not representative: %d entry chunks", len(want)-1)
	}
}
