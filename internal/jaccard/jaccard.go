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
// The periodic report (Coefficients) does not evaluate Eq. 2 once per
// tagset: it runs one signed subset-sum transform per maximal tagset, which
// yields the union count of every subset of that tagset at once, and reports
// each counter exactly once. Count, UnionCount and Jaccard are the
// single-set definitional path the report is tested against. Counter keys
// are built in a reused buffer, so counting an already seen subset and
// looking one up allocate nothing.
//
// The same table fed with unrestricted tagsets is the exact centralized
// baseline of Section 8.2.3.
package jaccard

import (
	"cmp"
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

// CounterTable counts, for every subset of every observed tagset, the number
// of observations containing that subset. It is not safe for concurrent use;
// each Calculator owns one.
type CounterTable struct {
	// index maps a subset's key to its slot in counts. The indirection
	// keeps the map value-typed while Coefficients marks counters by slot.
	index  map[tagset.Key]int
	counts []int64
	// roots holds the key of every counter that was created as a
	// document's whole tagset: a superset of the maximal counters, which
	// are the roots of Coefficients' transforms.
	roots []tagset.Key
	// multi is the number of counters of at least two tags: the most
	// coefficients a flush can report.
	multi int
	docs  int64

	// Scratch reused across calls: the key under construction, and
	// Coefficients' per-counter marks and per-root 2ⁿ arrays.
	key  []byte
	done []bool
	slot []int
	sum  []int64
}

// NewCounterTable returns an empty table.
func NewCounterTable() *CounterTable {
	return &CounterTable{index: make(map[tagset.Key]int)}
}

// Observe records one document carrying tagset s, incrementing the counter
// of every non-empty subset of s. Empty sets are ignored. A key string is
// allocated only when a subset is seen for the first time.
func (ct *CounterTable) Observe(s tagset.Set) {
	if s.IsEmpty() {
		return
	}
	ct.docs++
	s.Subsets(1, func(sub tagset.Set) {
		ct.key = sub.AppendKey(ct.key[:0])
		if i, ok := ct.index[tagset.Key(ct.key)]; ok {
			ct.counts[i]++
			return
		}
		k := tagset.Key(ct.key)
		ct.index[k] = len(ct.counts)
		ct.counts = append(ct.counts, 1)
		if len(sub) >= 2 {
			ct.multi++
		}
		if len(sub) == len(s) {
			ct.roots = append(ct.roots, k)
		}
	})
}

// Docs reports the number of observed documents.
func (ct *CounterTable) Docs() int64 { return ct.docs }

// Counters reports the number of live subset counters.
func (ct *CounterTable) Counters() int { return len(ct.counts) }

// Count returns the number of observed documents containing all tags of s
// (zero if the combination was never seen).
func (ct *CounterTable) Count(s tagset.Set) int64 {
	if i, ok := ct.index[s.Key()]; ok {
		return ct.counts[i]
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
// at least two tags whose intersection counter is at least minCN. This is
// the Calculator's periodic report (Section 6.2): the "maximum possible
// number of Jaccard coefficients" from the current counters. Results are
// sorted by descending J, ties broken by tagset.Compare (the tagset-key
// order) for determinism.
//
// Eq. 2 is not evaluated per tagset. Every counter is a subset of a maximal
// counter M, a document's whole tagset, all of whose 2ⁿ−1 subsets have
// counters because Observe created them together. With the subsets of M
// indexed by bitmask and g(T) = (−1)^(|T|+1)·count(T), the union count of
// every S ⊆ M is the subset sum Σ_{T⊆S} g(T), and one in-place zeta
// transform (n·2ⁿ additions) yields all 2ⁿ of them from 2ⁿ lookups. Roots
// are visited largest first, so a counter still unmarked when its turn
// comes has no superset in the table; each counter is marked by the first
// root that covers it and reported from that root only.
//
// The two scratch arrays hold 2ⁿ words for the largest tagset seen, fewer
// than the 2ⁿ counters Observe already created for it, so the n ≤ 30 limit
// of tagset.Set.Subsets is the only size limit here too.
func (ct *CounterTable) Coefficients(minCN int64) []Coefficient {
	if minCN < 1 {
		minCN = 1
	}
	slices.SortFunc(ct.roots, func(a, b tagset.Key) int { return b.Len() - a.Len() })
	ct.done = resized(ct.done, len(ct.counts))
	clear(ct.done)
	out := make([]Coefficient, 0, ct.multi)
	for _, rk := range ct.roots {
		if ct.done[ct.index[rk]] {
			continue
		}
		root := rk.Set()
		n := len(root)
		size := 1 << n
		ct.slot, ct.sum = resized(ct.slot, size), resized(ct.sum, size)
		slot, sum := ct.slot, ct.sum
		sum[0] = 0
		for mask := 1; mask < size; mask++ {
			ct.key = root.AppendSubsetKey(ct.key[:0], uint(mask))
			i := ct.index[tagset.Key(ct.key)]
			slot[mask] = i
			if bits.OnesCount(uint(mask))%2 == 1 {
				sum[mask] = ct.counts[i]
			} else {
				sum[mask] = -ct.counts[i]
			}
		}
		for bit := 1; bit < size; bit <<= 1 {
			for mask := bit; mask < size; mask = (mask + 1) | bit {
				sum[mask] += sum[mask^bit]
			}
		}
		for mask := 1; mask < size; mask++ {
			i := slot[mask]
			if ct.done[i] {
				continue
			}
			ct.done[i] = true
			cn, union := ct.counts[i], sum[mask]
			if mask&(mask-1) == 0 || cn < minCN || union <= 0 {
				continue
			}
			tags := make(tagset.Set, 0, bits.OnesCount(uint(mask)))
			for m := mask; m != 0; m &= m - 1 {
				tags = append(tags, root[bits.TrailingZeros(uint(m))])
			}
			out = append(out, Coefficient{Tags: tags, J: float64(cn) / float64(union), CN: cn})
		}
	}
	slices.SortFunc(out, func(a, b Coefficient) int {
		if a.J != b.J {
			return cmp.Compare(b.J, a.J)
		}
		return tagset.Compare(a.Tags, b.Tags)
	})
	return out
}

// resized returns s with length n and unspecified contents, reusing its
// array when that is large enough.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Reset deletes all counters, as the Calculator does after each report.
func (ct *CounterTable) Reset() {
	clear(ct.index)
	ct.counts = ct.counts[:0]
	ct.roots = ct.roots[:0]
	ct.multi = 0
	ct.docs = 0
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
// minCN, and resets the table for the next reporting period.
func (c *Centralized) Report(minCN int64) []Coefficient {
	out := c.table.Coefficients(minCN)
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
