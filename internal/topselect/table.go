package topselect

import (
	"cmp"
	"container/heap"
	"slices"

	"repro/internal/tagset"
)

// Entry is one value of a Table under its tagset key.
type Entry[V any] struct {
	Key   tagset.Key
	Value V
}

// Compare ranks two entries by rank, ties broken by ascending key. Keys are
// unique within a table, so it is 0 only for an entry and itself.
func Compare[V any](rank func(a, b V) int, a, b Entry[V]) int {
	if c := rank(a.Value, b.Value); c != 0 {
		return c
	}
	return cmp.Compare(a.Key, b.Key)
}

// Table holds one period's values of one shard by tagset key, plus a
// bounded min-heap over them.
//
// Invariant: the heap holds exactly the best min(bound, len(Values()))
// entries under Compare(rank). The invariant is also the heap's index:
// while the heap is below its bound it holds every entry, and once full it
// holds exactly those ranking at or before its root. Put keeps the
// invariant in O(log bound) for a fresh entry and an excluded one; a kept
// entry is found by a scan of the heap and fixed in place, and the one case
// that can let an excluded entry outrank a kept one — a kept entry demoted
// while others are excluded — rebuilds this table's heap from its values.
// A Table is not safe for concurrent use; its shard's lock guards it.
type Table[V any] struct {
	values map[tagset.Key]V
	top    topHeap[V]
	writes uint64 // Puts so far
}

// NewTable returns an empty table whose heap keeps the best bound (>= 1)
// entries under rank, a three-way comparison (negative when a ranks
// first), with the values map presized for hint entries and the heap for
// bound.
func NewTable[V any](bound, hint int, rank func(a, b V) int) *Table[V] {
	return &Table[V]{
		values: make(map[tagset.Key]V, hint),
		top:    topHeap[V]{entries: make([]Entry[V], 0, bound), bound: bound, rank: rank},
	}
}

// Values returns every value of the table by key. The map belongs to the
// table: callers read it and never write it. A nil table has none.
func (t *Table[V]) Values() map[tagset.Key]V {
	if t == nil {
		return nil
	}
	return t.values
}

// Top returns the heap's entries, the best min(bound, len(Values())), in
// heap order. The slice belongs to the table: callers copy out of it under
// the lock that guards the table. A nil table has none.
func (t *Table[V]) Top() []Entry[V] {
	if t == nil {
		return nil
	}
	return t.top.entries
}

// Writes returns how many times Put has stored a value: the values map is
// unchanged for as long as it is. A nil table has none.
func (t *Table[V]) Writes() uint64 {
	if t == nil {
		return 0
	}
	return t.writes
}

// Put stores v under k and maintains the heap: a fresh or excluded entry is
// offered, a kept one is fixed in place. It reports whether the heap had to
// be rebuilt, which happens only when a kept entry was demoted while others
// are excluded.
func (t *Table[V]) Put(k tagset.Key, v V) (rebuilt bool) {
	prev, existed := t.values[k]
	t.values[k] = v
	t.writes++
	h := &t.top
	if !existed || !h.keeps(Entry[V]{Key: k, Value: prev}) {
		h.offer(Entry[V]{Key: k, Value: v})
		return false
	}
	i := slices.IndexFunc(h.entries, func(e Entry[V]) bool { return e.Key == k })
	h.entries[i].Value = v
	heap.Fix(h, i)
	if len(t.values) > len(h.entries) && h.rank(prev, v) < 0 {
		t.rebuild()
		return true
	}
	return false
}

// SetBound raises the heap bound to n (a lower n is ignored) and reports
// whether entries it had excluded had to be brought in by a rebuild.
func (t *Table[V]) SetBound(n int) (rebuilt bool) {
	if n <= t.top.bound {
		return false
	}
	t.top.bound = n
	if len(t.values) == len(t.top.entries) {
		return false
	}
	t.rebuild()
	return true
}

// rebuild refills the heap from the values: a bounded selection, reusing
// the heap's slice.
func (t *Table[V]) rebuild() {
	h := &t.top
	h.entries = h.entries[:0]
	for k, v := range t.values {
		h.offer(Entry[V]{Key: k, Value: v})
	}
}

// topHeap is a bounded min-heap under rank: the root ranks last among the
// kept entries. It implements heap.Interface; entries enter through offer,
// which never boxes one.
type topHeap[V any] struct {
	entries []Entry[V]
	bound   int
	rank    func(a, b V) int
}

func (h *topHeap[V]) before(a, b Entry[V]) bool { return Compare(h.rank, a, b) < 0 }

// keeps reports whether e, an entry of the table, is in the heap: all are
// while the heap is below its bound, and then exactly those ranking at or
// before the root.
func (h *topHeap[V]) keeps(e Entry[V]) bool {
	return len(h.entries) < h.bound || !h.before(h.entries[0], e)
}

// offer keeps e if it belongs to the best bound: appended while below the
// bound, otherwise in place of the root (the worst kept entry) when it
// ranks before it.
func (h *topHeap[V]) offer(e Entry[V]) {
	if len(h.entries) < h.bound {
		h.entries = append(h.entries, e)
		heap.Fix(h, len(h.entries)-1)
		return
	}
	if h.before(e, h.entries[0]) {
		h.entries[0] = e
		heap.Fix(h, 0)
	}
}

func (h *topHeap[V]) Len() int           { return len(h.entries) }
func (h *topHeap[V]) Less(i, j int) bool { return h.before(h.entries[j], h.entries[i]) }
func (h *topHeap[V]) Swap(i, j int)      { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *topHeap[V]) Push(x any)         { h.entries = append(h.entries, x.(Entry[V])) }
func (h *topHeap[V]) Pop() any {
	e := h.entries[len(h.entries)-1]
	h.entries = h.entries[:len(h.entries)-1]
	return e
}
