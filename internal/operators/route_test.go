package operators

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/storm"
	"repro/internal/tagset"
	"repro/internal/topselect"
)

// foldColumn is the fold column of a batch built without a flush.
func foldColumn(cs []jaccard.Coefficient) []tagset.Fold {
	folds := make([]tagset.Fold, len(cs))
	for i, c := range cs {
		folds[i] = topselect.Fold(c.Tags)
	}
	return folds
}

// routeSet is the word the pipeline routes a tagset by (routeOf of its
// fold): its Tracker task and Tracker shard are this modulo their
// counts.
func routeSet(s tagset.Set) uint64 { return routeOf(topselect.Fold(s)) }

// TestRouteBalance routes structured tagsets, {x, x+100} and {x, 3x+100},
// by routeSet over 2, 4 and 16 destinations and bounds the largest share
// over the mean. FNV-1a's low bits depend only on the low bits of the key
// bytes, so it put all 60 of these tagsets for x < 30 on one of 2
// destinations (a share of 2.0), and over x < 1000 read 1.17, 1.80 and
// 2.14. With 60 tagsets over 16 destinations the mean is 3.75, where even
// a uniform random placement seldom keeps every destination at 4, so that
// one case is held to 2.0 instead of 1.25.
func TestRouteBalance(t *testing.T) {
	for _, n := range []tagset.Tag{30, 1000} {
		for _, dests := range []uint64{2, 4, 16} {
			count := make([]int, dests)
			for x := range n {
				count[routeSet(tagset.New(x, x+100))%dests]++
				count[routeSet(tagset.New(x, 3*x+100))%dests]++
			}
			mean := float64(2*n) / float64(dests)
			bound := 1.25
			if mean < 10 {
				bound = 2.0
			}
			if share := float64(slices.Max(count)) / mean; share > bound {
				t.Errorf("x < %d over %d destinations: largest share %.3f of the mean, want at most %.2f (%v)", n, dests, share, bound, count)
			}
		}
	}
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
// the end of its own window. The fold column grouped with the batch moves
// with it: each part's window of the column holds its own coefficients'
// folds.
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
		column := make([]tagset.Fold, len(hashes))
		route := make([]int32, len(hashes))
		for i, h := range hashes {
			coeffs[i] = jaccard.Coefficient{Tags: tagset.New(tagset.Tag(i)), J: float64(h) / 256, CN: int64(i)}
			column[i] = tagset.Fold{A: uint64(i) << 8}
			route[i] = int32(uint64(h) * 0x9e3779b97f4a7c15 >> 32 % uint64(tasks))
		}
		want := splitReference(coeffs, route, tasks)
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
				if column[lo+i].A != uint64(part[i].CN)<<8 {
					t.Fatalf("task %d, entry %d: fold %#x beside coefficient %d", g, i, column[lo+i].A, part[i].CN)
				}
			}
			lo += len(part)
		}
	})
}

// TestFlushCarriesFolds checks the folds a flush hands the Tracker: for 1
// and 4 Tracker tasks and over two periods, the second written into the
// first one's returned buffer, every CoeffBatch carries one fold per
// coefficient, each the topselect.Fold of its tags, routing it to the
// batch's task, and the batches together carry the whole report.
func TestFlushCarriesFolds(t *testing.T) {
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
				if len(b.folds) != len(b.Coeffs) {
					t.Fatalf("tasks=%d, period %d: %d folds for %d coefficients", tasks, p, len(b.folds), len(b.Coeffs))
				}
				for i, co := range b.Coeffs {
					if f := topselect.Fold(co.Tags); b.folds[i] != f {
						t.Fatalf("tasks=%d, period %d, batch %d, entry %d %v: fold %#x, want %#x", tasks, p, b.Route, i, co.Tags, b.folds[i].A, f.A)
					}
					if g := routeSet(co.Tags) % uint64(tasks); g != b.Route {
						t.Fatalf("tasks=%d, period %d: %v routes to task %d, sent in the batch of %d", tasks, p, co.Tags, g, b.Route)
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

// TestTrackerCarriedFoldsMatchIntake ingests two flushes of one period into
// a Tracker as the flushes built them, with their fold columns, and deep
// copies of the same coefficients into another Tracker as batches built
// without them, which it folds at intake. The second flush repeats many of
// the first one's tagsets, so deduplication by the carried fold is
// exercised too. Both Trackers answer Report, TopK and Lookup alike.
func TestTrackerCarriedFoldsMatchIntake(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewCalculator(Config{ReportEvery: 1000})
	carried, intake := NewTrackerWith(16, 8, 0), NewTrackerWith(16, 8, 0)
	seen := make(map[tagset.Key]bool)
	var period int64
	for range 2 {
		for range 300 {
			tags := make([]tagset.Tag, 1+rng.Intn(5))
			for j := range tags {
				tags[j] = tagset.Tag(rng.Intn(40))
			}
			c.table.Observe(tagset.New(tags...))
		}
		out := newCollector()
		c.flush(out, 0, 0)
		batches := out.byStream(StreamCoeff)
		if len(batches) != 1 {
			t.Fatalf("the flush emitted %d batches, want 1", len(batches))
		}
		b := batches[0].Values[0].(CoeffBatch)
		period = b.Period
		if b.folds == nil {
			t.Fatalf("a flush's batch carries no folds")
		}
		bare := CoeffBatch{Period: b.Period, Coeffs: make([]jaccard.Coefficient, len(b.Coeffs))}
		for i, co := range b.Coeffs {
			bare.Coeffs[i] = jaccard.Coefficient{Tags: co.Tags.Clone(), J: co.J, CN: co.CN}
			seen[co.Tags.Key()] = true
		}
		carried.Execute(batches[0], nil)
		intake.Execute(storm.Tuple{Stream: StreamCoeff, Values: []interface{}{bare}}, nil)
	}
	if got, want := carried.Duplicates.Load(), intake.Duplicates.Load(); got != want || got == 0 {
		t.Fatalf("duplicates: %d with carried folds, %d folded at intake; want equal and some", got, want)
	}
	if got, want := carried.Report(period), intake.Report(period); len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("Report: %d coefficients with carried folds, %d folded at intake, or they differ", len(got), len(want))
	}
	if got, want := carried.TopK(20), intake.TopK(20); !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK(20) with carried folds %v, folded at intake %v", got, want)
	}
	seen[tagset.New(1000, 1001).Key()] = false
	for k := range seen {
		c1, p1, ok1 := carried.Lookup(k)
		c2, p2, ok2 := intake.Lookup(k)
		if ok1 != seen[k] || ok2 != ok1 || p1 != p2 || !reflect.DeepEqual(c1, c2) {
			t.Fatalf("Lookup(%v): (%v, %d, %v) with carried folds, (%v, %d, %v) folded at intake",
				k.Set(), c1, p1, ok1, c2, p2, ok2)
		}
	}
}
