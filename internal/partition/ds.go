package partition

import (
	"cmp"
	"container/heap"
	"slices"

	"repro/internal/graph"
	"repro/internal/stream"
)

// buildDS implements Algorithm 1 (Disjoint Sets): identify the connected
// components of the tag graph, then greedily pack them into k partitions —
// repeatedly taking the heaviest unassigned component and adding it to the
// currently lightest partition. Because components are never split, every
// observed tagset lands wholly in exactly one partition: zero replication
// by construction.
func buildDS(in *Input, k int) *Result {
	comps := graph.Components(in.Sets) // already sorted by descending load
	return packComponents(comps, k, DS)
}

// packComponents distributes components (assumed sorted by descending load)
// over k partitions, largest-first onto the lightest partition — the
// longest-processing-time greedy of Algorithm 1 lines 8–19.
func packComponents(comps []graph.Component, k int, alg Algorithm) *Result {
	parts := make([]Partition, k)
	h := &loadHeap{}
	for i := 0; i < k; i++ {
		heap.Push(h, heapEntry{idx: i, load: 0})
	}
	for _, c := range comps {
		e := heap.Pop(h).(heapEntry)
		p := &parts[e.idx]
		p.Tags = p.Tags.Union(c.Tags)
		p.Load += c.Load
		e.load = p.Load
		heap.Push(h, e)
	}
	return &Result{Algorithm: alg, Parts: parts}
}

// buildDSHybrid is the Section 8.3 "lesson learned" variant: run DS, but
// first split any component whose load share exceeds opts.MaxLoadShare
// (default 2/k) into smaller pseudo-components using the SCL strategy over
// the component's member tagsets. Splitting sacrifices the zero-replication
// guarantee only inside oversized components.
func buildDSHybrid(in *Input, opts Options) *Result {
	k := opts.K
	maxShare := opts.MaxLoadShare
	if maxShare <= 0 {
		maxShare = 2 / float64(k)
	}
	comps := graph.Components(in.Sets)
	var total int64
	for _, c := range comps {
		total += c.Load
	}
	if total == 0 {
		return packComponents(comps, k, DSHybrid)
	}

	var final []graph.Component
	for _, c := range comps {
		share := float64(c.Load) / float64(total)
		if share <= maxShare || c.Sets < 2 {
			final = append(final, c)
			continue
		}
		// Split the oversized component: collect its member tagsets and
		// partition them with SCL into ceil(share/maxShare) pieces.
		pieces := int(share/maxShare) + 1
		if pieces > k {
			pieces = k
		}
		members := membersOf(in, c)
		sub := buildSetCover(NewInput(members), pieces, costLoad, phase2SCL, nil)
		for _, p := range sub.Parts {
			if p.Tags.IsEmpty() {
				continue
			}
			final = append(final, graph.Component{Tags: p.Tags, Load: p.Load})
		}
	}
	// Re-sort by load descending before packing; equal loads keep their
	// order.
	slices.SortStableFunc(final, func(a, b graph.Component) int { return cmp.Compare(b.Load, a.Load) })
	return packComponents(final, k, DSHybrid)
}

// membersOf returns the window tagsets belonging to component c.
func membersOf(in *Input, c graph.Component) []stream.WeightedSet {
	var out []stream.WeightedSet
	for _, ws := range in.Sets {
		if ws.Tags.SubsetOf(c.Tags) {
			out = append(out, ws)
		}
	}
	return out
}

// loadHeap is a min-heap of partitions by current load, used for the
// lightest-partition selection. Ties break on partition index for
// determinism.
type heapEntry struct {
	idx  int
	load int64
}

type loadHeap []heapEntry

func (h loadHeap) Len() int { return len(h) }
func (h loadHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].idx < h[j].idx
}
func (h loadHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *loadHeap) Push(x interface{}) { *h = append(*h, x.(heapEntry)) }
func (h *loadHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
