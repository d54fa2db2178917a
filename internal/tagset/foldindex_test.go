package tagset

import (
	"encoding/binary"
	"math/rand"
	"runtime/debug"
	"testing"
)

// indexFolds are the folds the FoldIndex tests key entries by: the real
// fold, a constant (every entry in one probe run), two bits of the tag (few
// fingerprints, partial collisions), and the real fold's high bits only
// (every fingerprint equal, but the folds distinct).
var indexFolds = []struct {
	name string
	fn   func(Tag) Fold
}{
	{"real", FoldTag},
	{"constant", func(Tag) Fold { return Fold{} }},
	{"two bits", func(t Tag) Fold { return Fold{A: uint64(t) & 3} }},
	{"high bits", func(t Tag) Fold { f := FoldTag(t); f.A &^= 1<<32 - 1; return f }},
}

// indexed is a FoldIndex over entries that are single tags, with the
// linear-scan reference beside it: slot i holds tags[i].
type indexed struct {
	t    *testing.T
	x    FoldIndex
	fold func(Tag) Fold
	tags []Tag
}

// find looks tag up in the index, failing the test if eq is ever asked
// about a slot the entries do not have or whose fingerprint differs.
func (ix *indexed) find(tag Tag) int32 {
	f := ix.fold(tag)
	return ix.x.Find(f, func(slot int32) bool {
		if slot < 0 || int(slot) >= len(ix.tags) {
			ix.t.Fatalf("Find(%d) asks about slot %d of %d entries", tag, slot, len(ix.tags))
		}
		if got := uint32(ix.fold(ix.tags[slot]).A); got != uint32(f.A) {
			ix.t.Fatalf("Find(%d) asks about slot %d, fingerprint %#x, looking for %#x", tag, slot, got, uint32(f.A))
		}
		return ix.tags[slot] == tag
	})
}

// ref is the reference lookup: a linear scan of the entries.
func (ix *indexed) ref(tag Tag) int32 {
	for i, t := range ix.tags {
		if t == tag {
			return int32(i)
		}
	}
	return -1
}

// put inserts tag after a missed Find, as the index's callers do.
func (ix *indexed) put(tag Tag) {
	if ix.find(tag) >= 0 {
		return
	}
	ix.x.Insert(ix.fold(tag), int32(len(ix.tags)))
	ix.tags = append(ix.tags, tag)
}

// checkAll requires every entry to be found in its own slot.
func (ix *indexed) checkAll(label string) {
	ix.t.Helper()
	if ix.x.n != len(ix.tags) {
		ix.t.Fatalf("%s: index holds %d entries, reference %d", label, ix.x.n, len(ix.tags))
	}
	for i, tag := range ix.tags {
		if got := ix.find(tag); got != int32(i) {
			ix.t.Fatalf("%s: Find(%d) = %d, want slot %d", label, tag, got, i)
		}
	}
}

// FuzzFoldIndex drives an index through insert, find and Reset sequences
// decoded from ops, three bytes an operation (the first 3 000 operations;
// one in 256 is a Reset), under the fold mode selects, from NewFoldIndex(0)
// or an index presized for up to 1 020 entries. Tags come from a universe
// of 2 048, so a run grows the index several times. Every Find must agree
// with a linear scan of the entries, and after every growth each entry
// must still be found.
func FuzzFoldIndex(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for mode := range uint8(2 * len(indexFolds)) {
		ops := make([]byte, 6000)
		rng.Read(ops)
		f.Add(mode, uint8(int(mode%2)*rng.Intn(256)), ops)
	}
	f.Fuzz(func(t *testing.T, mode, presize uint8, ops []byte) {
		ix := &indexed{t: t, x: NewFoldIndex(4 * int(presize)), fold: indexFolds[int(mode)%len(indexFolds)].fn}
		ops = ops[:min(len(ops), 3*3000)]
		for op := 0; len(ops) >= 3; op, ops = op+1, ops[3:] {
			tag := Tag(binary.LittleEndian.Uint16(ops[1:]) & 2047)
			switch {
			case ops[0] == 0xff: // one operation in 256
				ix.x.Reset()
				ix.tags = ix.tags[:0]
			case ops[0]%2 == 0:
				buckets := len(ix.x.buckets)
				ix.put(tag)
				if len(ix.x.buckets) != buckets {
					ix.checkAll("after growth")
				}
			default:
				if got, want := ix.find(tag), ix.ref(tag); got != want {
					t.Fatalf("op %d: Find(%d) = %d, linear scan %d", op, tag, got, want)
				}
			}
		}
		ix.checkAll("at the end")
	})
}

// TestFoldIndexGrowth inserts 2 000 entries into an index that starts
// empty, under every fold of indexFolds, and requires every entry to be
// found after each growth, and absent tags to be missed. The load never
// exceeds 3/4, so a probe always ends.
func TestFoldIndexGrowth(t *testing.T) {
	for _, fold := range indexFolds {
		t.Run(fold.name, func(t *testing.T) {
			ix := &indexed{t: t, fold: fold.fn}
			growths := 0
			for i := range Tag(2000) {
				buckets := len(ix.x.buckets)
				ix.put(3 * i)
				if len(ix.x.buckets) != buckets {
					growths++
					ix.checkAll("after growth")
				}
				if 4*ix.x.n > 3*len(ix.x.buckets) {
					t.Fatalf("%d entries in %d buckets", ix.x.n, len(ix.x.buckets))
				}
			}
			if growths < 8 {
				t.Fatalf("only %d growths", growths)
			}
			ix.checkAll("at the end")
			for i := range Tag(2000) {
				if got := ix.find(3*i + 1); got != -1 {
					t.Fatalf("Find of absent %d = %d", 3*i+1, got)
				}
			}
		})
	}
}

// TestFoldIndexAllocations guards the allocation-free index: Find, hit or
// miss, allocates nothing (its eq closure stays on the caller's stack), and
// an index presized for n entries takes them, after a Reset too, without
// allocating. A Reset must leave no bucket in use. The collector is off
// while it counts: a cycle allocates on its own account.
func TestFoldIndexAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 1000
	x := NewFoldIndex(n)
	tags := make([]Tag, n)
	fill := func() {
		x.Reset()
		for i := range tags {
			tags[i] = Tag(i)
			x.Insert(FoldTag(tags[i]), int32(i))
		}
	}
	fill()
	fill()
	used := 0
	for _, b := range x.buckets {
		if b != 0 {
			used++
		}
	}
	if used != n {
		t.Fatalf("after a Reset and a refill of %d entries, %d buckets are in use", n, used)
	}
	if got := testing.AllocsPerRun(10, fill); got != 0 {
		t.Errorf("%d Inserts into an index presized for them: %.0f allocations, want 0", n, got)
	}
	var found int32
	find := func() {
		for _, tag := range []Tag{7, n + 7} {
			found += x.Find(FoldTag(tag), func(slot int32) bool { return tags[slot] == tag })
		}
	}
	if got := testing.AllocsPerRun(100, find); got != 0 {
		t.Errorf("Find: %.0f allocations, want 0", got)
	}
	if found != 101*(7-1) {
		t.Errorf("Find of slot 7 and of an absent tag summed to %d over 101 runs", found)
	}
}
