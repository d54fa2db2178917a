package operators

import (
	"math/rand"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/tagset"
)

// routeHashes is the route hash column of a batch built without a flush.
func routeHashes(cs []jaccard.Coefficient) []uint64 {
	hashes := make([]uint64, len(cs))
	for i, c := range cs {
		hashes[i] = routeHashSet(c.Tags)
	}
	return hashes
}

// splitReference is the copying split groupByRoute replaced: a counting
// pass sizes every part, and each coefficient is copied, in arrival order,
// into its task's capped window of a new array.
func splitReference(coeffs []jaccard.Coefficient, route []int32, tasks int) [][]jaccard.Coefficient {
	sizes := make([]int, tasks)
	for _, g := range route {
		sizes[g]++
	}
	all := make([]jaccard.Coefficient, len(coeffs))
	parts := make([][]jaccard.Coefficient, tasks)
	lo := 0
	for g, n := range sizes {
		parts[g] = all[lo : lo : lo+n]
		lo += n
	}
	for i, co := range coeffs {
		parts[route[i]] = append(parts[route[i]], co)
	}
	return parts
}

// FuzzGroupByRoute holds the in-place grouping to the copying split: for
// 1 to 8 tasks and any route hashes (one byte of input per coefficient,
// spread by a multiplicative hash), including batches of none or one and
// tasks that receive nothing, every part equals the reference's element
// for element, and the parts tile the batch in task order, each capped at
// the end of its own window. A hash column grouped with the batch moves
// with it: each part's window of the column holds its own coefficients'
// hashes, and grouping without a column gives the same parts.
func FuzzGroupByRoute(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{})
	f.Add(uint8(0), []byte{7})
	f.Add(uint8(7), []byte{200})
	f.Add(uint8(1), []byte{1, 1, 1, 1})
	f.Add(uint8(3), []byte{9, 3, 250, 0, 17, 17, 4, 128, 64, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144})
	f.Add(uint8(7), []byte("the in-place grouping keeps arrival order within each part"))
	f.Fuzz(func(t *testing.T, tasksByte uint8, hashes []byte) {
		tasks := 1 + int(tasksByte%8)
		coeffs := make([]jaccard.Coefficient, len(hashes))
		column := make([]uint64, len(hashes))
		route := make([]int32, len(hashes))
		for i, h := range hashes {
			coeffs[i] = jaccard.Coefficient{Tags: tagset.New(tagset.Tag(i)), J: float64(h) / 256, CN: int64(i)}
			column[i] = uint64(i) << 8
			route[i] = int32(uint64(h) * 0x9e3779b97f4a7c15 >> 32 % uint64(tasks))
		}
		want := splitReference(coeffs, route, tasks)
		bare := append([]jaccard.Coefficient(nil), coeffs...)
		bareParts := groupByRoute(bare, nil, append([]int32(nil), route...), tasks)
		parts := groupByRoute(coeffs, column, route, tasks)
		if len(parts) != tasks {
			t.Fatalf("%d parts for %d tasks", len(parts), tasks)
		}
		lo := 0
		for g, part := range parts {
			if len(part) != len(want[g]) {
				t.Fatalf("task %d: %d coefficients, want %d", g, len(part), len(want[g]))
			}
			for i := range part {
				if !part[i].Tags.Equal(want[g][i].Tags) || part[i].CN != want[g][i].CN || part[i].J != want[g][i].J {
					t.Fatalf("task %d, entry %d: %+v, want %+v", g, i, part[i], want[g][i])
				}
			}
			if cap(part) != len(part) {
				t.Fatalf("task %d: capacity %d runs past its %d entries", g, cap(part), len(part))
			}
			if len(part) > 0 && &part[0] != &coeffs[lo] {
				t.Fatalf("task %d: its part does not start at entry %d of the batch", g, lo)
			}
			for i := range part {
				if column[lo+i] != uint64(part[i].CN)<<8 {
					t.Fatalf("task %d, entry %d: hash %#x beside coefficient %d", g, i, column[lo+i], part[i].CN)
				}
				if bareParts[g][i].CN != part[i].CN {
					t.Fatalf("task %d, entry %d: without a hash column, coefficient %d; with one, %d", g, i, bareParts[g][i].CN, part[i].CN)
				}
			}
			lo += len(part)
		}
	})
}

// TestFlushCarriesRouteHashes checks the hashes a flush hands the Tracker:
// for 1 and 4 Tracker tasks and over two periods, the second written into
// the first one's returned buffer, every CoeffBatch carries one hash per
// coefficient, each the routeHashSet of its tags, routing it to the
// batch's task, and the batches together carry the whole report.
func TestFlushCarriesRouteHashes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	period := func(n int) []tagset.Set {
		docs := make([]tagset.Set, n)
		for i := range docs {
			tags := make([]tagset.Tag, 1+rng.Intn(6))
			for j := range tags {
				tags[j] = tagset.Tag(rng.Intn(60)) << (8 * rng.Intn(4))
			}
			docs[i] = tagset.New(tags...)
		}
		return docs
	}
	for _, tasks := range []int{1, 4} {
		c := NewCalculator(Config{ReportEvery: 1000})
		c.trackerTasks = tasks
		for p, docs := range [][]tagset.Set{period(400), period(300)} {
			for _, d := range docs {
				c.table.Observe(d)
			}
			want := len(c.table.Coefficients(1))
			out := newCollector()
			c.flush(out, 0, 0)
			total := 0
			for _, tu := range out.byStream(StreamCoeff) {
				b := tu.Values[0].(CoeffBatch)
				if len(b.hashes) != len(b.Coeffs) {
					t.Fatalf("tasks=%d, period %d: %d hashes for %d coefficients", tasks, p, len(b.hashes), len(b.Coeffs))
				}
				for i, co := range b.Coeffs {
					h := routeHashSet(co.Tags)
					if b.hashes[i] != h {
						t.Fatalf("tasks=%d, period %d, batch %d, entry %d %v: hash %#x, want %#x", tasks, p, b.Route, i, co.Tags, b.hashes[i], h)
					}
					if h%uint64(tasks) != b.Route {
						t.Fatalf("tasks=%d, period %d: %v routes to task %d, sent in the batch of %d", tasks, p, co.Tags, h%uint64(tasks), b.Route)
					}
				}
				total += len(b.Coeffs)
				b.buf.release()
			}
			if total != want || want == 0 {
				t.Fatalf("tasks=%d, period %d: the batches carried %d coefficients of a report of %d", tasks, p, total, want)
			}
			if n := len(c.reports.free); n != 1 {
				t.Fatalf("tasks=%d, period %d: %d report buffers free after the batches were consumed, want 1", tasks, p, n)
			}
		}
	}
}
