package topselect

import (
	"math/rand"
	"testing"

	"repro/internal/tagset"
)

// BenchmarkTableFill times filling one Tracker period table, as a shard
// of an ingest-wide run does: 14 564 tagsets of 2 to 8 tags into a table
// presized for the period before, of 14 131 (period sizes creep up over a
// run's first periods). "new" fills a new table, "renewed" the table of the
// period before, renewed (a pruned period's table, the shard's spare).
func BenchmarkTableFill(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	period := make([]tagset.Set, 14564)
	for i := range period {
		tags := make([]tagset.Tag, 2+rng.Intn(7))
		for j := range tags {
			tags[j] = tagset.Tag(rng.Intn(1 << 20))
		}
		period[i] = tagset.New(tags...)
	}
	const before = 14131
	rank := rankings[0].rank
	fill := func(tb *Table[coeff]) {
		for i, s := range period {
			tb.Put(tb.Find(Fold(s), s), s, coeff{J: float64(i%97) / 97, CN: int64(i)})
		}
	}
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			fill(NewTable(128, before, rank))
		}
	})
	b.Run("renewed", func(b *testing.B) {
		tb := NewTable(128, before, rank)
		fill(tb)
		b.ReportAllocs()
		for b.Loop() {
			tb.Renew(128, before)
			fill(tb)
		}
	})
}
