// Package jaccard implements the correlation measure of the paper: the
// Jaccard coefficient of a set of tags, defined as the ratio of the number
// of documents annotated with all of the set's tags to the number annotated
// with any of them (Section 3.1, Eq. 1).
//
// A CounterTable maintains, per observed tagset, the count of documents
// containing all of the tagset's tags — exactly the state a Calculator
// keeps. The denominator (documents containing any tag) is derived by the
// inclusion–exclusion principle (Eq. 2) from the counters of all non-empty
// subsets, which exist by construction because every received document
// increments every subset of its (partition-restricted) tagset.
//
// The periodic report (AppendCoefficients) does not evaluate Eq. 2 once per
// tagset: it runs one signed subset-sum transform per maximal tagset, which
// yields the union count of every subset of that tagset at once, and reports
// each counter exactly once, in the order the transforms visit them. That
// order is unspecified but deterministic: the same sequence of Observe calls
// gives the same slice, after a Reset too. Consumers that need an order
// sort; Centralized.Report does. Count, UnionCount and Jaccard are the
// single-set definitional path the report is tested against.
//
// A report's coefficients share one tag arena: each Coefficient.Tags is a
// window of it capped at its own length, so an append by a consumer copies
// instead of writing over the next coefficient's tags. AppendCoefficients
// writes a report into a coefficient array and an arena the caller gives
// it, grown once when too small, so a caller that reuses them allocates
// nothing per report; Coefficients makes a new array and arena, two
// allocations whatever the number of coefficients. AppendCoefficients also
// gives each coefficient the tagset.Fold of its tags, the one hash a
// Calculator's consumers route, shard and index the coefficient by; a
// transform folds every subset of its root with one addition each, as
// Observe does.
//
// Counters are indexed by a tagset.Fold of their tags in a tagset.FoldIndex,
// not by a key string, and every hit is confirmed against the tags, so
// counting allocates nothing per subset and a collision costs a longer
// probe, never a wrong count.
//
// The same table fed with unrestricted tagsets is the exact centralized
// baseline of Section 8.2.3.
package jaccard

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/tagset"
)

// Coefficient is one reported correlation: the tagset, its Jaccard value,
// and the intersection counter CN it was computed from (the Tracker uses CN
// to pick among duplicate reports, Section 6.2).
type Coefficient struct {
	Tags tagset.Set
	J    float64
	CN   int64
}

// maxTags is the largest tagset Observe accepts, the limit of
// tagset.Set.Subsets: a document of n tags creates up to 2ⁿ−1 counters.
const maxTags = 30

// foldTag folds one tag; a test replaces it with a degenerate fold to force
// collisions.
var foldTag = tagset.FoldTag

// CounterTable counts, for every subset of every observed tagset, the number
// of observations containing that subset. It is not safe for concurrent use;
// each Calculator owns one.
//
// A table never deletes one counter, only all of them (Reset), so its
// FoldIndex is exact (see tagset.FoldIndex).
type CounterTable struct {
	// index maps the fold of a counter's tags to its slot in counters. It
	// holds no pointer, so the GC does not scan it.
	index    tagset.FoldIndex
	counters []counter
	// arena holds the tags of every root back to back. A document creates
	// counters only if its whole tagset is new (a counter's subsets all
	// exist), so each new counter is a subset of the root created with it.
	arena []tagset.Tag
	// roots[n] holds, in creation order, one entry for every counter of n
	// tags that was created as a document's whole tagset: together a
	// superset of the maximal counters, which are the roots of
	// Coefficients' transforms. The entry is where the root's subsets
	// start in sub.
	roots [maxTags + 1][]int32
	// sub holds, root after root, the slots of a root's 2ⁿ−1 subsets,
	// indexed by the bitmask that selects them less one (the root's own
	// slot last). Observe found them while creating the root, so a
	// transform reads them here instead of folding and probing again.
	sub []int32
	// multi is the number of counters of at least two tags, the most
	// coefficients a flush can report, and multiTags the sum of their tag
	// counts, the most tags those coefficients can carry.
	multi, multiTags int
	docs             int64

	// Scratch reused across calls: the fold of every subset of the set
	// being observed or reported, and AppendCoefficients' per-counter marks
	// and per-root 2ⁿ sums.
	folds []tagset.Fold
	done  []bool
	sum   []int64
}

// counter is one subset's count and where its tags are: the bits of mask
// select them from the root tags stored at arena[off:].
type counter struct {
	n         int64
	off, mask uint32
}

// NewCounterTable returns an empty table.
func NewCounterTable() *CounterTable {
	return &CounterTable{}
}

// Observe records one document carrying tagset s, incrementing the counter
// of every non-empty subset of s. Empty sets are ignored; sets of more than
// 30 tags panic, as tagset.Set.Subsets does. Counting allocates nothing but
// the growth of the table's own arrays.
func (ct *CounterTable) Observe(s tagset.Set) {
	n := len(s)
	if n == 0 {
		return
	}
	if n > maxTags {
		panic(fmt.Sprintf("jaccard: Observe of a set of %d tags", n))
	}
	ct.docs++
	folds := ct.foldSubsets(s)
	off := -1 // s's offset in the arena once a counter needs it
	full := uint32(1)<<n - 1
	// The subsets' slots go to the end of sub, kept only if s becomes a
	// root: a counter is created only when s is new, and then s is too.
	base := len(ct.sub)
	ct.sub = slices.Grow(ct.sub, int(full))[:base+int(full)]
	sub := ct.sub[base:]
	for mask := uint32(1); mask <= full; mask++ {
		i := ct.lookup(folds[mask], s, mask)
		if i >= 0 {
			ct.counters[i].n++
			sub[mask-1] = i
			continue
		}
		if off < 0 {
			off = len(ct.arena)
			ct.arena = append(ct.arena, s...)
		}
		i = int32(len(ct.counters))
		ct.index.Insert(folds[mask], i)
		ct.counters = append(ct.counters, counter{n: 1, off: uint32(off), mask: mask})
		sub[mask-1] = i
		if mask&(mask-1) != 0 {
			ct.multi++
			ct.multiTags += bits.OnesCount32(mask)
		}
	}
	if off < 0 {
		ct.sub = ct.sub[:base]
		return
	}
	ct.roots[n] = append(ct.roots[n], int32(base))
}

// foldSubsets returns the fold of every subset of tags, indexed by the
// bitmask that selects it (bit i keeps tags[i]): one FoldTag per tag, then
// one addition per subset.
func (ct *CounterTable) foldSubsets(tags []tagset.Tag) []tagset.Fold {
	size := 1 << len(tags)
	ct.folds = resized(ct.folds, size)
	f := ct.folds
	f[0] = tagset.Fold{}
	for i, t := range tags {
		f[1<<i] = foldTag(t)
	}
	for mask := 3; mask < size; mask++ {
		if low := mask & -mask; low != mask {
			f[mask] = f[mask^low].Add(f[low])
		}
	}
	return f
}

// lookup returns the slot of the counter of the subset of tags that mask
// selects, whose fold is f, or -1 when the table has none.
func (ct *CounterTable) lookup(f tagset.Fold, tags []tagset.Tag, mask uint32) int32 {
	return ct.index.Find(f, func(i int32) bool { return ct.holds(i, tags, mask) })
}

// holds reports whether counter i counts exactly the subset of tags that
// mask selects.
func (ct *CounterTable) holds(i int32, tags []tagset.Tag, mask uint32) bool {
	r := &ct.counters[i]
	if bits.OnesCount32(r.mask) != bits.OnesCount32(mask) {
		return false
	}
	own := ct.arena[r.off:]
	for m, o := mask, r.mask; m != 0; m, o = m&(m-1), o&(o-1) {
		if tags[bits.TrailingZeros32(m)] != own[bits.TrailingZeros32(o)] {
			return false
		}
	}
	return true
}

// Docs reports the number of observed documents.
func (ct *CounterTable) Docs() int64 { return ct.docs }

// Counters reports the number of live subset counters.
func (ct *CounterTable) Counters() int { return len(ct.counters) }

// Count returns the number of observed documents containing all tags of s
// (zero if the combination was never seen).
func (ct *CounterTable) Count(s tagset.Set) int64 {
	if len(s) == 0 || len(s) > maxTags {
		return 0
	}
	var key tagset.Fold
	for _, t := range s {
		key = key.Add(foldTag(t))
	}
	if i := ct.lookup(key, s, uint32(1)<<len(s)-1); i >= 0 {
		return ct.counters[i].n
	}
	return 0
}

// UnionCount returns the number of observed documents containing any tag of
// s, by inclusion–exclusion over the subset counters (Eq. 2). Together with
// Count and Jaccard it is the definitional single-set path; Coefficients
// computes the same numbers for a whole period at once and is tested
// against it.
func (ct *CounterTable) UnionCount(s tagset.Set) int64 {
	var total int64
	s.Subsets(1, func(sub tagset.Set) {
		c := ct.Count(sub)
		if sub.Len()%2 == 1 {
			total += c
		} else {
			total -= c
		}
	})
	return total
}

// Jaccard returns the coefficient for s and whether it is defined (the
// denominator is positive and s has at least two tags).
func (ct *CounterTable) Jaccard(s tagset.Set) (float64, bool) {
	if s.Len() < 2 {
		return 0, false
	}
	inter := ct.Count(s)
	if inter == 0 {
		return 0, false
	}
	union := ct.UnionCount(s)
	if union <= 0 {
		return 0, false
	}
	return float64(inter) / float64(union), true
}

// Coefficients computes the Jaccard coefficient for every tracked tagset of
// at least two tags whose intersection counter is at least minCN, in a new
// coefficient array and tag arena: AppendCoefficients(nil, nil, nil,
// minCN) without the folds, except that an empty report is an empty slice,
// not nil.
func (ct *CounterTable) Coefficients(minCN int64) []Coefficient {
	r := report{}
	ct.appendReport(&r, minCN)
	if r.coeffs == nil {
		return []Coefficient{}
	}
	return r.coeffs
}

// AppendCoefficients appends to out the Jaccard coefficient of every
// tracked tagset of at least two tags whose intersection counter is at
// least minCN, their tags to arena and the fold of each one's tags to
// folds, in the same order as out, and returns all three. This is the
// Calculator's periodic report (Section 6.2): the "maximum possible number
// of Jaccard coefficients" from the current counters, and the fold its
// consumers route and index each coefficient by. Results come in the order
// the transforms below visit them. That order is unspecified but
// deterministic: the same sequence of Observe calls, with or without a
// Reset before it, gives the same coefficients. A caller that needs an
// order sorts.
//
// Eq. 2 is not evaluated per tagset. Every counter is a subset of a maximal
// counter M, a document's whole tagset, all of whose 2ⁿ−1 subsets have
// counters because Observe created them together, and recorded their
// slots. With the subsets of M indexed by bitmask and
// g(T) = (−1)^(|T|+1)·count(T), the union count of every S ⊆ M is the
// subset sum Σ_{T⊆S} g(T), and one in-place zeta transform (n·2ⁿ
// additions) yields all 2ⁿ of them from the recorded slots, with no lookup.
// The fold of each S ⊆ M is one addition (foldSubsets). Roots are visited
// largest first, so a counter still unmarked when its turn comes has no
// superset in the table; each counter is marked by the first root that
// covers it and reported from that root only.
//
// The scratch arrays hold 2ⁿ entries for the largest tagset seen, no more
// than the 2ⁿ counters Observe already created for it, so the n ≤ 30 limit
// of Observe is the only size limit here too. out, arena and folds are
// grown once, up front, by every counter of two tags or more and by their
// tags, so none grows during the report: given arrays that large, the call
// allocates nothing. Each coefficient's tags are a window of arena capped
// at its own length.
func (ct *CounterTable) AppendCoefficients(out []Coefficient, arena []tagset.Tag, folds []tagset.Fold, minCN int64) ([]Coefficient, []tagset.Tag, []tagset.Fold) {
	r := report{coeffs: out, arena: arena, folds: folds, folded: true}
	ct.appendReport(&r, minCN)
	return r.coeffs, r.arena, r.folds
}

// report is the arrays one report appends to.
type report struct {
	coeffs []Coefficient
	arena  []tagset.Tag
	folds  []tagset.Fold
	folded bool // append each coefficient's fold to folds
}

// appendReport appends the report of every counter to r (AppendCoefficients).
func (ct *CounterTable) appendReport(r *report, minCN int64) {
	if minCN < 1 {
		minCN = 1
	}
	ct.done = resized(ct.done, len(ct.counters))
	clear(ct.done)
	r.coeffs = slices.Grow(r.coeffs, ct.multi)
	r.arena = slices.Grow(r.arena, ct.multiTags)
	if r.folded {
		r.folds = slices.Grow(r.folds, ct.multi)
	}
	for n := maxTags; n >= 1; n-- {
		size := 1 << n
		for _, base := range ct.roots[n] {
			sub := ct.sub[base : int(base)+size-1]
			if !ct.done[sub[size-2]] {
				ct.transform(r, sub, n, minCN)
			}
		}
	}
}

// transform reports to r, from a root of n tags whose subsets' slots are
// sub (sub[mask-1] for the subset mask selects), every counter under it not
// yet marked done, and marks them. r's arrays have the capacity for them
// all.
func (ct *CounterTable) transform(r *report, sub []int32, n int, minCN int64) {
	off := int(ct.counters[sub[len(sub)-1]].off)
	root := ct.arena[off : off+n]
	size := 1 << n
	ct.sum = resized(ct.sum, size)
	sum := ct.sum
	sum[0] = 0
	for mask := 1; mask < size; mask++ {
		c := ct.counters[sub[mask-1]].n
		if bits.OnesCount(uint(mask))%2 == 1 {
			sum[mask] = c
		} else {
			sum[mask] = -c
		}
	}
	for bit := 1; bit < size; bit <<= 1 {
		for mask := bit; mask < size; mask = (mask + 1) | bit {
			sum[mask] += sum[mask^bit]
		}
	}
	var folds []tagset.Fold
	if r.folded {
		folds = ct.foldSubsets(root)
	}
	for mask := 1; mask < size; mask++ {
		i := sub[mask-1]
		if ct.done[i] {
			continue
		}
		ct.done[i] = true
		cn, union := ct.counters[i].n, sum[mask]
		if mask&(mask-1) == 0 || cn < minCN || union <= 0 {
			continue
		}
		lo := len(r.arena)
		for m := mask; m != 0; m &= m - 1 {
			r.arena = append(r.arena, root[bits.TrailingZeros(uint(m))])
		}
		r.coeffs = append(r.coeffs, Coefficient{Tags: r.arena[lo:len(r.arena):len(r.arena)], J: float64(cn) / float64(union), CN: cn})
		if r.folded {
			r.folds = append(r.folds, folds[mask])
		}
	}
}

// resized returns s with length n and unspecified contents, reusing its
// array when that is large enough.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Reset deletes all counters, as the Calculator does after each report.
func (ct *CounterTable) Reset() {
	ct.index.Reset()
	ct.counters = ct.counters[:0]
	ct.arena = ct.arena[:0]
	ct.sub = ct.sub[:0]
	for n := range ct.roots {
		ct.roots[n] = ct.roots[n][:0]
	}
	ct.multi, ct.multiTags = 0, 0
	ct.docs = 0
}

// sortCoefficients orders a report by descending J, ties broken by
// tagset.Compare (the tagset-key order).
func sortCoefficients(cs []Coefficient) {
	slices.SortFunc(cs, func(a, b Coefficient) int {
		if a.J != b.J {
			return cmp.Compare(b.J, a.J)
		}
		return tagset.Compare(a.Tags, b.Tags)
	})
}

// Centralized is the exact single-node baseline: it observes every document
// unrestricted and reports coefficients for tagsets seen at least minCN
// times. The distributed pipeline's accuracy (Figure 5) is measured against
// it.
type Centralized struct {
	table *CounterTable
}

// NewCentralized returns an empty baseline calculator.
func NewCentralized() *Centralized {
	return &Centralized{table: NewCounterTable()}
}

// Observe records one document's full tagset.
func (c *Centralized) Observe(s tagset.Set) { c.table.Observe(s) }

// Table exposes the underlying counter table (read-only use).
func (c *Centralized) Table() *CounterTable { return c.table }

// Report returns the exact coefficients for all tagsets with counter >=
// minCN, sorted by descending J with ties in tagset.Compare order, and
// resets the table for the next reporting period. The order fixes the
// summation order of CompareReports, and so its last digit.
func (c *Centralized) Report(minCN int64) []Coefficient {
	out := c.table.Coefficients(minCN)
	sortCoefficients(out)
	c.table.Reset()
	return out
}

// CompareReports matches a distributed report against the baseline and
// returns the mean absolute Jaccard error over baseline tagsets that the
// distributed run also reported, together with the coverage (fraction of
// baseline tagsets that received any coefficient) — the two quantities of
// Section 8.2.3.
func CompareReports(baseline, distributed []Coefficient) (meanAbsErr, coverage float64) {
	if len(baseline) == 0 {
		return 0, 1
	}
	dist := make(map[tagset.Key]float64, len(distributed))
	for _, c := range distributed {
		dist[c.Tags.Key()] = c.J
	}
	var errSum float64
	matched := 0
	for _, b := range baseline {
		if j, ok := dist[b.Tags.Key()]; ok {
			d := j - b.J
			if d < 0 {
				d = -d
			}
			errSum += d
			matched++
		}
	}
	coverage = float64(matched) / float64(len(baseline))
	if matched > 0 {
		meanAbsErr = errSum / float64(matched)
	}
	return meanAbsErr, coverage
}
