package topselect

import (
	"slices"

	"repro/internal/tagset"
)

// foldTag folds one tag; a test replaces it with a degenerate fold to force
// collisions.
var foldTag = tagset.FoldTag

// Fold returns the fold a Table keys s under: the sum of its tags' folds.
func Fold(s tagset.Set) tagset.Fold {
	var f tagset.Fold
	for _, t := range s {
		f = f.Add(foldTag(t))
	}
	return f
}

// Table holds one period's values of one shard by tagset, plus a bounded
// min-heap over them.
//
// Layout: the index (a tagset.FoldIndex) maps a tagset's fold (Fold) to
// the entry's slot; each entry holds the offset and length of its tags in
// one arena, where the tags of all entries sit back to back, and its value;
// the heap holds slots. None of these holds a pointer as long as V holds
// none, so the GC never traces a retained entry. Every index candidate is
// confirmed against the arena tags. That is exact because a table never
// deletes a single entry, only the whole table (see tagset.FoldIndex).
//
// Tags handed out (Entry) are capped sub-slices of the arena: appending to
// one copies it, and the arena only ever grows by append, so a slice
// handed out stays valid, and unchanged, after the arena moves.
//
// Invariant: the heap holds exactly the best min(bound, Len()) entries
// under rank, ties broken by tagset.Compare on their tags. The invariant is
// also the heap's index: while the heap is below its bound it holds every
// entry, and once full it holds exactly those ranking at or before its
// root. Put keeps the invariant in O(log bound) for a fresh entry and an
// excluded one; a kept entry is found by a scan of the heap and fixed in
// place, and the one case that can let an excluded entry outrank a kept one
// — a kept entry demoted while others are excluded — rebuilds this table's
// heap from its entries. A Table is not safe for concurrent use; its
// shard's lock guards it.
type Table[V any] struct {
	index   tagset.FoldIndex
	entries []entry[V]
	arena   []tagset.Tag
	top     []int32 // heap of slots; the root ranks last among them
	bound   int
	rank    func(a, b V) int
	writes  uint64 // Puts so far
}

// entry is one value and where its tags are: arena[off : off+n].
type entry[V any] struct {
	off, n uint32
	v      V
}

// Pos is where Find located a tagset: its slot, and its fold, under which
// Put indexes it when the table does not hold it.
type Pos struct {
	slot int32 // -1 when absent
	fold tagset.Fold
}

// NewTable returns an empty table whose heap keeps the best bound (>= 1)
// entries under rank, a three-way comparison (negative when a ranks
// first), with the index and entries presized for entries values and the
// arena for tags tags in all, and the heap for bound.
func NewTable[V any](bound, entries, tags int, rank func(a, b V) int) *Table[V] {
	return &Table[V]{
		index:   tagset.NewFoldIndex(entries),
		entries: make([]entry[V], 0, entries),
		arena:   make([]tagset.Tag, 0, tags),
		top:     make([]int32, 0, bound),
		bound:   bound,
		rank:    rank,
	}
}

// Renew empties t for a new period, as NewTable(bound, entries, tags, rank)
// with t's rank would make it, but keeps what t has already allocated: the
// index is cleared and keeps its buckets, and the entries and heap arrays
// keep theirs, grown to entries and bound when smaller. The arena is a
// fresh one of tags tags, never the old one cleared, so every tags slice
// Entry handed out stays valid and unchanged. The write count starts again
// at zero.
func (t *Table[V]) Renew(bound, entries, tags int) {
	t.index.Reset()
	t.entries = slices.Grow(t.entries[:0], entries)
	t.arena = make([]tagset.Tag, 0, tags)
	t.top = slices.Grow(t.top[:0], bound)
	t.bound = bound
	t.writes = 0
}

// Len returns how many entries the table holds. A nil table holds none.
func (t *Table[V]) Len() int {
	if t == nil {
		return 0
	}
	return len(t.entries)
}

// Size returns how many entries the table holds and how many tags they
// hold together, what NewTable presizes a table of the same size by. A nil
// table holds none.
func (t *Table[V]) Size() (entries, tags int) {
	if t == nil {
		return 0, 0
	}
	return len(t.entries), len(t.arena)
}

// Entry returns the tags and value in slot (0 <= slot < Len(), in insertion
// order). The tags belong to the table: callers read them and never write
// them.
func (t *Table[V]) Entry(slot int32) (tagset.Set, V) {
	e := &t.entries[slot]
	return t.arena[e.off : e.off+e.n : e.off+e.n], e.v
}

// Top returns the slots the heap holds, the best min(bound, Len()), in heap
// order. The slice belongs to the table: callers read it under the lock
// that guards the table. A nil table has none.
func (t *Table[V]) Top() []int32 {
	if t == nil {
		return nil
	}
	return t.top
}

// Writes returns how many times Put has stored a value: the entries are
// unchanged for as long as it is. A nil table has none.
func (t *Table[V]) Writes() uint64 {
	if t == nil {
		return 0
	}
	return t.writes
}

// Find locates s, whose fold is f (Fold(s)). A nil table holds nothing.
func (t *Table[V]) Find(f tagset.Fold, s tagset.Set) Pos {
	if t == nil {
		return Pos{slot: -1, fold: f}
	}
	slot := t.index.Find(f, func(i int32) bool {
		e := &t.entries[i]
		return slices.Equal(t.arena[e.off:e.off+e.n], s)
	})
	return Pos{slot: slot, fold: f}
}

// Slot returns the slot Find found the tagset in, or false when the table
// does not hold it.
func (p Pos) Slot() (int32, bool) { return p.slot, p.slot >= 0 }

// Put stores v at p, a Pos that Find returned for s with no Put since, and
// maintains the heap: a fresh entry copies s into the arena and is offered,
// as is an excluded one; a kept one is fixed in place. It reports whether
// the heap had to be rebuilt, which happens only when a kept entry was
// demoted while others are excluded.
func (t *Table[V]) Put(p Pos, s tagset.Set, v V) (rebuilt bool) {
	t.writes++
	if p.slot < 0 {
		slot := int32(len(t.entries))
		t.entries = append(t.entries, entry[V]{off: uint32(len(t.arena)), n: uint32(len(s)), v: v})
		t.arena = append(t.arena, s...)
		t.index.Insert(p.fold, slot)
		t.offer(slot)
		return false
	}
	e := &t.entries[p.slot]
	kept := t.keeps(p.slot)
	prev := e.v
	e.v = v
	if !kept {
		t.offer(p.slot)
		return false
	}
	t.fix(slices.Index(t.top, p.slot))
	if len(t.entries) > len(t.top) && t.rank(prev, v) < 0 {
		t.rebuild()
		return true
	}
	return false
}

// SetBound raises the heap bound to n (a lower n is ignored) and reports
// whether entries it had excluded had to be brought in by a rebuild.
func (t *Table[V]) SetBound(n int) (rebuilt bool) {
	if n <= t.bound {
		return false
	}
	t.bound = n
	if len(t.entries) == len(t.top) {
		return false
	}
	t.rebuild()
	return true
}

// rebuild refills the heap from the entries: a bounded selection, reusing
// the heap's slice.
func (t *Table[V]) rebuild() {
	t.top = t.top[:0]
	for i := range t.entries {
		t.offer(int32(i))
	}
}

// before reports whether slot a ranks strictly before slot b: by rank, ties
// broken by their tags. Tags are unique within a table, so of two distinct
// slots one ranks before the other.
func (t *Table[V]) before(a, b int32) bool {
	ea, eb := &t.entries[a], &t.entries[b]
	if c := t.rank(ea.v, eb.v); c != 0 {
		return c < 0
	}
	return tagset.Compare(t.arena[ea.off:ea.off+ea.n], t.arena[eb.off:eb.off+eb.n]) < 0
}

// keeps reports whether slot, an entry of the table, is in the heap: all
// are while the heap is below its bound, and then exactly those ranking at
// or before the root.
func (t *Table[V]) keeps(slot int32) bool {
	return len(t.top) < t.bound || !t.before(t.top[0], slot)
}

// offer keeps slot if it belongs to the best bound: appended while below
// the bound, otherwise in place of the root (the worst kept entry) when it
// ranks before it.
func (t *Table[V]) offer(slot int32) {
	if len(t.top) < t.bound {
		t.top = append(t.top, slot)
		t.up(len(t.top) - 1)
		return
	}
	if t.before(slot, t.top[0]) {
		t.top[0] = slot
		t.down(0)
	}
}

// fix restores the heap order after the value at heap index i changed.
func (t *Table[V]) fix(i int) {
	if !t.down(i) {
		t.up(i)
	}
}

// up moves heap index i towards the root while it ranks after its parent
// (the root ranks last).
func (t *Table[V]) up(i int) {
	h := t.top
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(h[parent], h[i]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// down moves heap index i away from the root while a child ranks after it,
// and reports whether it moved.
func (t *Table[V]) down(i int) bool {
	h := t.top
	start := i
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && t.before(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && t.before(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return i > start
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
