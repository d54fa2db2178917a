package operators

import (
	"testing"

	"repro/internal/jaccard"
	"repro/internal/tagset"
)

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
// the end of its own window.
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
		route := make([]int32, len(hashes))
		for i, h := range hashes {
			coeffs[i] = jaccard.Coefficient{Tags: tagset.New(tagset.Tag(i)), J: float64(h) / 256, CN: int64(i)}
			route[i] = int32(uint64(h) * 0x9e3779b97f4a7c15 >> 32 % uint64(tasks))
		}
		want := splitReference(coeffs, route, tasks)
		parts := groupByRoute(coeffs, route, tasks)
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
			lo += len(part)
		}
	})
}
