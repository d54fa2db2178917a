// Package topselect provides bounded top-k selection and the retained
// per-period tables built on it: Select, the primitive behind every "best k
// of n" read path in the system; Table, one period's values of one shard
// with its best entries kept in a bounded heap; and Registry, the
// retention bound shared by all shards of a per-period store. The Tracker's
// coefficient tables and the trend detector's scored-event tables are both
// built from Table and Registry.
package topselect

// Select retains the best k elements of items under before, reusing the
// slice's backing array; the survivors' order is unspecified. k <= 0 or a
// list already within the bound returns items unchanged. The classic
// bounded selection: a min-heap of the best k seen (root = worst kept),
// whose root is displaced whenever a better candidate arrives — O(n log k)
// with no allocation.
func Select[T any](items []T, k int, before func(a, b T) bool) []T {
	if k <= 0 || len(items) <= k {
		return items
	}
	h := items[:k:k]
	down := func(i int) {
		for {
			worst := i
			if l := 2*i + 1; l < k && before(h[worst], h[l]) {
				worst = l
			}
			if r := 2*i + 2; r < k && before(h[worst], h[r]) {
				worst = r
			}
			if worst == i {
				return
			}
			h[i], h[worst] = h[worst], h[i]
			i = worst
		}
	}
	for i := k/2 - 1; i >= 0; i-- {
		down(i)
	}
	for _, x := range items[k:] {
		if before(x, h[0]) {
			h[0] = x
			down(0)
		}
	}
	return h
}
