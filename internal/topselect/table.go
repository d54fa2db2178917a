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

// entryShift and tagShift are the log2 of how many entries and how many
// tags a full chunk of a Table holds. A full chunk of Tracker entries
// (24 bytes each) or of tags (4 bytes each) is then 24 KB or 16 KB, under
// the runtime's 32 KB large-object size. A test sets them tiny, so that most
// of its inputs cross chunks.
var entryShift, tagShift uint = 10, 12

// Table holds one period's values of one shard by tagset, plus a bounded
// min-heap over them.
//
// Layout: the index (a tagset.FoldIndex) maps a tagset's fold (Fold) to
// the entry's slot; each entry holds where its tags sit in the arena, and
// its value; the heap holds slots. Entries sit in chunks of 1<<entryShift,
// slot by slot, and tags in arena chunks of 1<<tagShift, the tags of one
// entry after another's and never across two chunks: tags that do not fit
// in the last chunk start a new one. Only the first chunk of each grows,
// by copy, up to the full size, so a small table stays small (one presized
// for a chunk of entries or more allocates it full at once); every later
// chunk is allocated full, and no chunk moves once full. None of these
// holds a pointer as long as V holds none, so the GC never traces a
// retained entry. Every index candidate is confirmed against the arena
// tags. That is exact because a table never deletes a single entry, only
// the whole table (see tagset.FoldIndex).
//
// Tags handed out (Entry) are capped sub-slices of an arena chunk:
// appending to one copies it, and a chunk is only ever appended to, so a
// slice handed out stays valid, and unchanged, after the first chunk grows
// and moves.
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
	entries [][]entry[V]   // chunk slot>>entryShift holds slot
	arena   [][]tagset.Tag // chunks of tags; the last one is being filled
	n       int32          // entries
	full    bool           // first chunks start full: presized for a chunk of entries
	top     []int32        // heap of slots; the root ranks last among them
	bound   int
	rank    func(a, b V) int
	writes  uint64 // Puts so far
}

// entry is one value and where its tags are: n tags at offset off&mask of
// arena chunk off>>tagShift.
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
// first), with the index presized for entries values and the heap for
// bound. Entry and arena chunks are allocated as the entries arrive; when
// entries fills a chunk or more, the first ones are allocated full instead
// of grown.
func NewTable[V any](bound, entries int, rank func(a, b V) int) *Table[V] {
	return &Table[V]{
		index: tagset.NewFoldIndex(entries),
		full:  entries >= 1<<entryShift,
		top:   make([]int32, 0, bound),
		bound: bound,
		rank:  rank,
	}
}

// Renew empties t for a new period, as NewTable(bound, entries, rank) with
// t's rank would make it, but keeps what t has already allocated: the index
// is cleared and keeps its buckets (grown to hold entries when smaller),
// the entry chunks are truncated and filled again, and the heap keeps its
// array. The arena chunks are dropped, never written again, so every tags
// slice Entry handed out stays valid and unchanged; the new period's tags
// go to fresh chunks. The write count starts again at zero.
func (t *Table[V]) Renew(bound, entries int) {
	t.index.Reset()
	t.index.Reserve(entries)
	for i := range t.entries {
		t.entries[i] = t.entries[i][:0]
	}
	clear(t.arena)
	t.arena = t.arena[:0]
	t.n = 0
	t.full = entries >= 1<<entryShift
	t.top = slices.Grow(t.top[:0], bound)
	t.bound = bound
	t.writes = 0
}

// Len returns how many entries the table holds. A nil table holds none.
func (t *Table[V]) Len() int {
	if t == nil {
		return 0
	}
	return int(t.n)
}

// at returns the entry in slot (0 <= slot < Len()).
func (t *Table[V]) at(slot int32) *entry[V] {
	return &t.entries[uint32(slot)>>entryShift][uint32(slot)&(1<<entryShift-1)]
}

// tags returns e's tags, a window of its arena chunk capped at their end.
func (t *Table[V]) tags(e *entry[V]) tagset.Set {
	o := e.off & (1<<tagShift - 1)
	return t.arena[e.off>>tagShift][o : o+e.n : o+e.n]
}

// Entry returns the tags and value in slot (0 <= slot < Len(), in insertion
// order). The tags belong to the table: callers read them and never write
// them.
func (t *Table[V]) Entry(slot int32) (tagset.Set, V) {
	e := t.at(slot)
	return t.tags(e), e.v
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
		return slices.Equal(t.tags(t.at(i)), s)
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
		slot := t.push(entry[V]{off: t.store(s), n: uint32(len(s)), v: v})
		t.index.Insert(p.fold, slot)
		t.offer(slot)
		return false
	}
	e := t.at(p.slot)
	kept := t.keeps(p.slot)
	prev := e.v
	e.v = v
	if !kept {
		t.offer(p.slot)
		return false
	}
	t.fix(slices.Index(t.top, p.slot))
	if int(t.n) > len(t.top) && t.rank(prev, v) < 0 {
		t.rebuild()
		return true
	}
	return false
}

// push appends e in the next slot and returns the slot. A slot past the
// last chunk gets a new chunk of full size; the first chunk grows instead
// (growFirst). A renewed table's chunks have room already.
func (t *Table[V]) push(e entry[V]) int32 {
	slot := t.n
	c := int(uint32(slot) >> entryShift)
	if c == len(t.entries) {
		t.entries = append(t.entries, nil)
	}
	if ch := t.entries[c]; len(ch) == cap(ch) {
		if c == 0 {
			t.entries[0] = growFirst(ch, len(ch)+1, 1<<entryShift, t.full)
		} else {
			t.entries[c] = make([]entry[V], 0, 1<<entryShift)
		}
	}
	t.entries[c] = append(t.entries[c], e)
	t.n++
	return slot
}

// store copies s to the end of the last arena chunk and returns where it
// went, as an entry's off. Tags that do not fit there start a new chunk of
// full size, unless the chunk is the first one and can grow to hold them
// (growFirst); a set larger than a chunk gets one of its own size.
func (t *Table[V]) store(s tagset.Set) uint32 {
	size := 1 << tagShift
	if len(t.arena) == 0 {
		t.arena = append(t.arena, nil)
	}
	last := len(t.arena) - 1
	if ch := t.arena[last]; len(ch)+len(s) > cap(ch) {
		if last == 0 && len(ch)+len(s) <= size {
			t.arena[0] = growFirst(ch, len(ch)+len(s), size, t.full)
		} else {
			t.arena = append(t.arena, make([]tagset.Tag, 0, max(size, len(s))))
			last++
		}
	}
	off := uint32(last)<<tagShift | uint32(len(t.arena[last]))
	t.arena[last] = append(t.arena[last], s...)
	return off
}

// growFirst returns a copy of a table's first chunk ch with room for need
// elements in all: of size when full, and otherwise twice its capacity, at
// least 8 and at least need, but no more than size. The old array is never
// written again, so windows of it that Entry handed out stay unchanged.
func growFirst[T any](ch []T, need, size int, full bool) []T {
	n := size
	if !full {
		n = min(max(2*cap(ch), 8, need), size)
	}
	return append(make([]T, 0, n), ch...)
}

// SetBound raises the heap bound to n (a lower n is ignored) and reports
// whether entries it had excluded had to be brought in by a rebuild.
func (t *Table[V]) SetBound(n int) (rebuilt bool) {
	if n <= t.bound {
		return false
	}
	t.bound = n
	if int(t.n) == len(t.top) {
		return false
	}
	t.rebuild()
	return true
}

// rebuild refills the heap from the entries: a bounded selection, reusing
// the heap's slice.
func (t *Table[V]) rebuild() {
	t.top = t.top[:0]
	for slot := range t.n {
		t.offer(slot)
	}
}

// before reports whether slot a ranks strictly before slot b: by rank, ties
// broken by their tags. Tags are unique within a table, so of two distinct
// slots one ranks before the other.
func (t *Table[V]) before(a, b int32) bool {
	ea, eb := t.at(a), t.at(b)
	if c := t.rank(ea.v, eb.v); c != 0 {
		return c < 0
	}
	return tagset.Compare(t.tags(ea), t.tags(eb)) < 0
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
