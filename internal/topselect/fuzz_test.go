package topselect

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tagset"
)

// fuzzFolds are the folds FuzzTable runs under: the real one, and two
// degenerate ones — every set folds alike, or by two bits of each tag — so
// that nearly every lookup walks a probe chain past other tagsets' entries.
var fuzzFolds = []func(tagset.Tag) tagset.Fold{
	tagset.FoldTag,
	func(tagset.Tag) tagset.Fold { return tagset.Fold{} },
	func(t tagset.Tag) tagset.Fold { return tagset.Fold{A: uint64(t) & 3} },
}

// fuzzSet decodes one byte into one of 136 tagsets of one to three tags,
// drawn from tags on both sides of the key encoding's byte boundaries, where
// tagset.Compare and numeric tag order disagree.
func fuzzSet(x byte) tagset.Set {
	edges := []tagset.Tag{0, 1, 2, 255, 256, 257, 65536, 1 << 24}
	a, b := edges[x&7], edges[x>>3&7]+1<<20
	switch x >> 6 {
	case 0:
		return tagset.New(a)
	case 1:
		return tagset.New(a, b)
	}
	return tagset.New(a, b, 1<<21)
}

// FuzzTable drives one table through put, upgrade, demotion and bound-raise
// sequences decoded from ops, three bytes an operation (the first 512
// operations), under the fold and ranking mode selects, on tiny chunks
// (tinyChunks) so that most inputs cross them. After every operation the
// heap must hold the sort-everything reference's best bound (checkTable),
// and after every 16th and the last each tagset of the universe must be
// found exactly when the reference holds it, with the reference's value
// and tags.
func FuzzTable(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for mode := range uint8(2 * len(fuzzFolds)) {
		ops := make([]byte, 900)
		rng.Read(ops)
		f.Add(mode, uint8(rng.Intn(8)), ops)
	}
	f.Fuzz(func(t *testing.T, mode, bound uint8, ops []byte) {
		tinyChunks(t)
		defer func(f func(tagset.Tag) tagset.Fold) { foldTag = f }(foldTag)
		foldTag = fuzzFolds[int(mode)%len(fuzzFolds)]
		rank := rankings[int(mode)/len(fuzzFolds)%len(rankings)].rank
		b := 1 + int(bound)%16
		tb := NewTable(b, 0, rank)
		ref := map[tagset.Key]coeff{}
		put := func(s tagset.Set, v coeff) {
			tb.Put(tb.Find(Fold(s), s), s, v)
			ref[s.Key()] = v
		}
		ops = ops[:min(len(ops), 3*512)]
		for op := 0; len(ops) >= 3; op, ops = op+1, ops[3:] {
			x, y := ops[1], ops[2]
			s := fuzzSet(x)
			switch ops[0] % 4 {
			case 0: // put, fresh or overwriting
				put(s, coeff{J: float64(y%5) / 4, CN: int64(y / 5 % 8)})
			case 1: // CN upgrade, which may lower J
				prev, ok := ref[s.Key()]
				if !ok {
					prev.CN = 1
				}
				put(s, coeff{J: float64(y%5) / 4, CN: prev.CN + 1})
			case 2: // demote a kept entry
				if top := tb.Top(); len(top) > 0 {
					s, v := tb.Entry(top[int(y)%len(top)])
					v.J -= float64(1+y%2) / 4
					put(s, v)
				}
			case 3:
				b++
				tb.SetBound(b)
			}
			label := fmt.Sprintf("op %d (%d)", op, ops[0]%4)
			if tb.Len() != len(ref) {
				t.Fatalf("%s: table holds %d entries, reference %d", label, tb.Len(), len(ref))
			}
			checkTable(t, label, tb, b, rank)
			if op%16 != 0 && len(ops) >= 6 {
				continue
			}
			for x := range 256 {
				s := fuzzSet(byte(x))
				want, held := ref[s.Key()]
				slot, found := tb.Find(Fold(s), s).Slot()
				if found != held {
					t.Fatalf("%s: Find(%v) found=%v, reference holds it: %v", label, s, found, held)
				}
				if !found {
					continue
				}
				if tags, v := tb.Entry(slot); !tags.Equal(s) || v != want {
					t.Fatalf("%s: Find(%v) reaches %v = %+v, reference %+v", label, s, tags, v, want)
				}
			}
		}
	})
}
