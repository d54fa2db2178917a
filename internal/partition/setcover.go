package partition

import (
	"container/heap"
	"math"
	"math/rand"

	"repro/internal/tagset"
)

// costMode is the phase-1 (Algorithm 2) cost of selecting a candidate seed
// tagset, given the covered-tag set and the loads selected so far.
type costMode func(st *scState, setIdx int, iteration int) float64

// costComm is the communication cost: the number of the candidate's tags
// already covered by previously selected seeds.
func costComm(st *scState, i, _ int) float64 {
	return float64(st.coveredCount(st.in.Sets[i].Tags))
}

// costLoad is the load-deviation cost: |plop - pln| where plop = 1/m is the
// optimal load share at iteration m and pln the candidate's actual share.
func costLoad(st *scState, i, m int) float64 {
	ln := float64(st.in.Loads[i])
	denom := st.selectedLoad + ln
	if denom == 0 {
		return 0
	}
	return math.Abs(1/float64(m) - ln/denom)
}

// costZero is the SCI mode: phase 1 degenerates to pure maximum coverage.
func costZero(*scState, int, int) float64 { return 0 }

// phase2Mode identifies which Algorithm (3, 4 or 5) places the remaining
// tagsets.
type phase2Mode int

const (
	phase2SCC phase2Mode = iota // Algorithm 3: minimise communication
	phase2SCL                   // Algorithm 4: balance load
	phase2SCI                   // Algorithm 5: random order, max overlap
)

// scState is the shared working state of the set-cover algorithms.
type scState struct {
	in      *Input
	covered map[tagset.Tag]struct{}   // CV
	members []map[tagset.Tag]struct{} // per-partition assigned tags
	loads   []int64                   // per-partition sum of member tagset loads

	selectedLoad float64 // phase 1: total load of selected seeds
	assigned     []bool
}

func newScState(in *Input, k int) *scState {
	st := &scState{
		in:       in,
		covered:  make(map[tagset.Tag]struct{}),
		members:  make([]map[tagset.Tag]struct{}, k),
		loads:    make([]int64, k),
		assigned: make([]bool, len(in.Sets)),
	}
	for i := range st.members {
		st.members[i] = make(map[tagset.Tag]struct{})
	}
	return st
}

func (st *scState) coveredCount(s tagset.Set) int {
	n := 0
	for _, t := range s {
		if _, ok := st.covered[t]; ok {
			n++
		}
	}
	return n
}

func (st *scState) uncoveredCount(s tagset.Set) int {
	return s.Len() - st.coveredCount(s)
}

// overlap returns |s ∩ partition p|.
func (st *scState) overlap(s tagset.Set, p int) int {
	n := 0
	for _, t := range s {
		if _, ok := st.members[p][t]; ok {
			n++
		}
	}
	return n
}

// place assigns tagset i to partition p.
func (st *scState) place(i, p int) {
	st.assigned[i] = true
	for _, t := range st.in.Sets[i].Tags {
		st.members[p][t] = struct{}{}
		st.covered[t] = struct{}{}
	}
	st.loads[p] += st.in.Loads[i]
}

// buildSetCover runs Algorithm 2 (seed selection with the given cost mode)
// followed by the requested phase-2 placement. rng is used only by SCI.
func buildSetCover(in *Input, k int, cost costMode, mode phase2Mode, rng *rand.Rand) *Result {
	st := newScState(in, k)

	// Phase 1 (Algorithm 2): pick up to k seeds. Selection follows the
	// paper's dual criterion "argmin cost and argmax uncovered": lowest
	// cost first, most newly-covered tags as tie-break, then lowest index
	// in NewInput's canonical order, so the choice is a function of the
	// window's contents alone.
	seeds := 0
	for seeds < k {
		best, bestCost, bestUnc := -1, math.Inf(1), -1
		for i := range in.Sets {
			if st.assigned[i] {
				continue
			}
			c := cost(st, i, seeds+1)
			u := st.uncoveredCount(in.Sets[i].Tags)
			if best == -1 || c < bestCost || (c == bestCost && u > bestUnc) {
				best, bestCost, bestUnc = i, c, u
			}
		}
		if best == -1 {
			break // fewer tagsets than partitions
		}
		st.place(best, seeds)
		st.selectedLoad += float64(in.Loads[best])
		seeds++
	}

	// Phase 2: place every remaining tagset.
	switch mode {
	case phase2SCC:
		phase2CommRun(st, k)
	case phase2SCL:
		phase2LoadRun(st, k)
	case phase2SCI:
		phase2RandomRun(st, k, rng)
	}

	// Materialise partitions; report exact loads over the window.
	alg := map[phase2Mode]Algorithm{phase2SCC: SCC, phase2SCL: SCL, phase2SCI: SCI}[mode]
	res := &Result{Algorithm: alg, Parts: make([]Partition, k)}
	for p := 0; p < k; p++ {
		tags := make([]tagset.Tag, 0, len(st.members[p]))
		for t := range st.members[p] {
			tags = append(tags, t)
		}
		set := tagset.New(tags...)
		res.Parts[p] = Partition{Tags: set, Load: in.LoadOfTags(set)}
	}
	return res
}

// scEntry is a lazy-greedy heap entry: a candidate tagset with a possibly
// stale priority. Priorities only worsen as coverage grows, so popping an
// entry, refreshing it, and re-inserting if it no longer beats the next
// candidate implements exact greedy selection.
type scEntry struct {
	idx  int
	key1 int // primary (larger = better)
	key2 int // secondary (larger = better)
}

type scHeap []scEntry

func (h scHeap) Len() int { return len(h) }
func (h scHeap) Less(i, j int) bool {
	if h[i].key1 != h[j].key1 {
		return h[i].key1 > h[j].key1
	}
	if h[i].key2 != h[j].key2 {
		return h[i].key2 > h[j].key2
	}
	return h[i].idx < h[j].idx
}
func (h scHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *scHeap) Push(x interface{}) { *h = append(*h, x.(scEntry)) }
func (h *scHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// phase2CommRun implements Algorithm 3 (SCC): repeatedly select the tagset
// with the most uncovered tags (fewest total tags as tie-break) and add it
// to the partition sharing the most tags with it (lowest load as tie-break).
func phase2CommRun(st *scState, k int) {
	h := &scHeap{}
	for i := range st.in.Sets {
		if st.assigned[i] {
			continue
		}
		s := st.in.Sets[i].Tags
		heap.Push(h, scEntry{idx: i, key1: st.uncoveredCount(s), key2: -s.Len()})
	}
	for h.Len() > 0 {
		e := heap.Pop(h).(scEntry)
		if st.assigned[e.idx] {
			continue
		}
		s := st.in.Sets[e.idx].Tags
		fresh := st.uncoveredCount(s)
		if fresh != e.key1 {
			// Stale: priority dropped; re-insert with the fresh value.
			heap.Push(h, scEntry{idx: e.idx, key1: fresh, key2: e.key2})
			continue
		}
		// Partition: argmax overlap, tie argmin load, tie lowest index.
		best, bestOv, bestLoad := 0, -1, int64(math.MaxInt64)
		for p := 0; p < k; p++ {
			ov := st.overlap(s, p)
			if ov > bestOv || (ov == bestOv && st.loads[p] < bestLoad) {
				best, bestOv, bestLoad = p, ov, st.loads[p]
			}
		}
		st.place(e.idx, best)
	}
}

// phase2LoadRun implements Algorithm 4 (SCL): repeatedly select the tagset
// with the largest load (fewest already-covered tags as tie-break) and add
// it to the partition with the least load (most shared tags as tie-break).
func phase2LoadRun(st *scState, k int) {
	h := &scHeap{}
	for i := range st.in.Sets {
		if st.assigned[i] {
			continue
		}
		s := st.in.Sets[i].Tags
		heap.Push(h, scEntry{idx: i, key1: int(st.in.Loads[i]), key2: -st.coveredCount(s)})
	}
	for h.Len() > 0 {
		e := heap.Pop(h).(scEntry)
		if st.assigned[e.idx] {
			continue
		}
		s := st.in.Sets[e.idx].Tags
		freshKey2 := -st.coveredCount(s)
		if freshKey2 != e.key2 {
			heap.Push(h, scEntry{idx: e.idx, key1: e.key1, key2: freshKey2})
			continue
		}
		// Partition: argmin load, tie argmax overlap, tie lowest index.
		best, bestOv, bestLoad := 0, -1, int64(math.MaxInt64)
		for p := 0; p < k; p++ {
			ov := st.overlap(s, p)
			if st.loads[p] < bestLoad || (st.loads[p] == bestLoad && ov > bestOv) {
				best, bestOv, bestLoad = p, ov, st.loads[p]
			}
		}
		st.place(e.idx, best)
	}
}

// phase2RandomRun implements Algorithm 5 (SCI): visit the remaining tagsets
// in random order, adding each to the partition sharing the most tags.
func phase2RandomRun(st *scState, k int, rng *rand.Rand) {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	var rest []int
	for i := range st.in.Sets {
		if !st.assigned[i] {
			rest = append(rest, i)
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for _, i := range rest {
		s := st.in.Sets[i].Tags
		best, bestOv, ties := 0, -1, 0
		for p := 0; p < k; p++ {
			switch ov := st.overlap(s, p); {
			case ov > bestOv:
				best, bestOv, ties = p, ov, 1
			case ov == bestOv:
				// Reservoir-style random tie-break: without it, every
				// tagset overlapping no partition piles onto partition 0,
				// which then overlaps everything.
				ties++
				if rng.Intn(ties) == 0 {
					best = p
				}
			}
		}
		st.place(i, best)
	}
}
