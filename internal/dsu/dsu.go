// Package dsu implements a union-find (disjoint set union) structure with
// path compression and union by size. It is the engine behind the Disjoint
// Sets partitioning algorithm (Algorithm 1 of the paper) and the connected-
// component statistics of Section 8.2.6: tags are elements, and observing a
// tagset unions all of its tags into one component.
package dsu

// DSU maintains disjoint sets over dense integer elements 0..n-1. Elements
// are added lazily via Grow/MakeSet. The zero value is an empty structure
// ready for use.
type DSU struct {
	parent []int32
	size   []int32
	sets   int
}

// New returns a DSU pre-sized for n elements, each in its own singleton set.
func New(n int) *DSU {
	d := &DSU{}
	d.Grow(n)
	return d
}

// Grow ensures elements 0..n-1 exist, adding any missing ones as singletons.
func (d *DSU) Grow(n int) {
	for len(d.parent) < n {
		d.parent = append(d.parent, int32(len(d.parent)))
		d.size = append(d.size, 1)
		d.sets++
	}
}

// Len reports the number of elements tracked.
func (d *DSU) Len() int { return len(d.parent) }

// Sets reports the current number of disjoint sets.
func (d *DSU) Sets() int { return d.sets }

// Find returns the representative of x's set, growing the universe if x is
// new.
func (d *DSU) Find(x int) int {
	d.Grow(x + 1)
	root := x
	for d.parent[root] != int32(root) {
		root = int(d.parent[root])
	}
	// Path compression.
	for x != root {
		next := int(d.parent[x])
		d.parent[x] = int32(root)
		x = next
	}
	return root
}

// Union merges the sets containing a and b and returns the representative of
// the merged set. It reports whether a merge actually happened (false when a
// and b were already in the same set).
func (d *DSU) Union(a, b int) (root int, merged bool) {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return ra, false
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = int32(ra)
	d.size[ra] += d.size[rb]
	d.sets--
	return ra, true
}

// Components returns, for each current set, the slice of its members.
// Element order within a component follows element id order.
func (d *DSU) Components() [][]int {
	groups := make(map[int][]int, d.sets)
	for x := range d.parent {
		r := d.Find(x)
		groups[r] = append(groups[r], x)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	return out
}

// Reset returns every element to its own singleton set, keeping capacity.
func (d *DSU) Reset() {
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	d.sets = len(d.parent)
}
