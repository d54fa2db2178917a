// Package partition implements the paper's core contribution: the
// algorithms that split a window of observed tagsets into k tag partitions
// such that every co-occurring tagset is wholly contained in some partition
// (coverage), tag replication across partitions is low (communication), and
// per-partition load is balanced (Section 4).
//
// Four algorithms are provided, exactly following the paper:
//
//   - DS  (Algorithm 1): connected components of the tag graph, greedily
//     packed into k partitions by descending load.
//   - SCC (Algorithms 2+3): budgeted-max-coverage seeds with communication
//     cost, remaining tagsets placed to minimise tag replication.
//   - SCL (Algorithms 2+4): seeds with load-deviation cost, remaining
//     tagsets placed to balance load.
//   - SCI (Algorithms 2+5): zero-cost seeds, remaining tagsets placed in
//     random order to the partition sharing the most tags (the prior-work
//     baseline [Alvanaki & Michel, DBSocial 2013]).
//
// The package also evaluates partition quality (expected communication and
// per-node load, Section 7.2) and places late-arriving tagsets (Single
// Additions, Section 7.1).
package partition

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/quality"
	"repro/internal/stream"
	"repro/internal/tagset"
)

// Algorithm identifies one of the paper's partitioning algorithms.
type Algorithm string

// The four partitioning algorithms evaluated in the paper, plus the
// "lessons learned" hybrid (Section 8.3): DS whose oversized components are
// split with SCL.
const (
	DS       Algorithm = "DS"
	SCC      Algorithm = "SCC"
	SCL      Algorithm = "SCL"
	SCI      Algorithm = "SCI"
	DSHybrid Algorithm = "DS+split"
)

// Algorithms lists the four paper algorithms in the order the figures use.
var Algorithms = []Algorithm{DS, SCI, SCC, SCL}

// Valid reports whether a is a known algorithm.
func (a Algorithm) Valid() bool {
	switch a {
	case DS, SCC, SCL, SCI, DSHybrid:
		return true
	}
	return false
}

// Partition is one tag partition: the set of tags one Calculator is
// responsible for, plus its expected load (documents annotated with any
// assigned tag, measured on the formation window).
type Partition struct {
	Tags tagset.Set
	Load int64
}

// Result is a complete partitioning of a window.
type Result struct {
	Algorithm Algorithm
	Parts     []Partition
}

// K returns the number of partitions.
func (r *Result) K() int { return len(r.Parts) }

// TotalAssignedTags returns the sum of per-partition tag counts; with the
// distinct-tag count it yields the replication factor the paper's second
// objective minimises.
func (r *Result) TotalAssignedTags() int {
	n := 0
	for _, p := range r.Parts {
		n += p.Tags.Len()
	}
	return n
}

// DistinctTags returns the number of distinct tags across all partitions.
func (r *Result) DistinctTags() int {
	seen := make(map[tagset.Tag]struct{})
	for _, p := range r.Parts {
		for _, t := range p.Tags {
			seen[t] = struct{}{}
		}
	}
	return len(seen)
}

// Replication returns the mean number of partitions each distinct tag is
// assigned to (>= 1; exactly 1 means zero replication, the DS guarantee).
func (r *Result) Replication() float64 {
	d := r.DistinctTags()
	if d == 0 {
		return 0
	}
	return float64(r.TotalAssignedTags()) / float64(d)
}

// Covers reports whether some partition fully contains s.
func (r *Result) Covers(s tagset.Set) bool {
	for _, p := range r.Parts {
		if s.SubsetOf(p.Tags) {
			return true
		}
	}
	return false
}

// Options configures a partitioning run.
type Options struct {
	Algorithm Algorithm
	K         int   // number of partitions (Calculators)
	Seed      int64 // randomness for SCI's random draw order
	// MaxLoadShare bounds a single component's load share before DSHybrid
	// splits it; 0 means the default 2/K.
	MaxLoadShare float64
}

// Build runs the selected algorithm over the window snapshot. It returns an
// error for invalid options; an empty snapshot yields K empty partitions.
func Build(sets []stream.WeightedSet, opts Options) (*Result, error) {
	if !opts.Algorithm.Valid() {
		return nil, fmt.Errorf("partition: unknown algorithm %q", opts.Algorithm)
	}
	if opts.K < 1 {
		return nil, fmt.Errorf("partition: k = %d < 1", opts.K)
	}
	in := NewInput(sets)
	switch opts.Algorithm {
	case DS:
		return buildDS(in, opts.K), nil
	case DSHybrid:
		return buildDSHybrid(in, opts), nil
	case SCC:
		return buildSetCover(in, opts.K, costComm, phase2SCC, nil), nil
	case SCL:
		return buildSetCover(in, opts.K, costLoad, phase2SCL, nil), nil
	case SCI:
		rng := rand.New(rand.NewSource(opts.Seed))
		return buildSetCover(in, opts.K, costZero, phase2SCI, rng), nil
	}
	panic("unreachable")
}

// Input is the preprocessed window snapshot the algorithms consume: the
// distinct tagsets with occurrence counts, per-tagset loads (documents
// annotated with any of the tagset's tags), and an inverted tag index.
type Input struct {
	Sets  []stream.WeightedSet
	Loads []int64 // Loads[i] = documents whose tagset intersects Sets[i].Tags
	Total int64   // total documents in the window

	postings map[tagset.Tag][]int32 // tag -> indices of Sets containing it
}

// NewInput preprocesses a window snapshot. Tagsets with empty tag sets are
// dropped, and the rest are put in canonical order — tagset.Compare, then
// count — so that every index-based tie-break of the algorithms depends on
// what the window holds, never on the order a window's map yielded it.
func NewInput(sets []stream.WeightedSet) *Input {
	in := &Input{postings: make(map[tagset.Tag][]int32)}
	for _, ws := range sets {
		if ws.Tags.IsEmpty() {
			continue
		}
		in.Sets = append(in.Sets, ws)
		in.Total += ws.Count
	}
	slices.SortFunc(in.Sets, func(a, b stream.WeightedSet) int {
		if c := tagset.Compare(a.Tags, b.Tags); c != 0 {
			return c
		}
		return cmp.Compare(a.Count, b.Count)
	})
	for i, ws := range in.Sets {
		for _, t := range ws.Tags {
			in.postings[t] = append(in.postings[t], int32(i))
		}
	}
	// Per-tagset load via posting-list union with a visited stamp.
	in.Loads = make([]int64, len(in.Sets))
	stamp := make([]int32, len(in.Sets))
	for i := range stamp {
		stamp[i] = -1
	}
	for i, ws := range in.Sets {
		var load int64
		for _, t := range ws.Tags {
			for _, j := range in.postings[t] {
				if stamp[j] != int32(i) {
					stamp[j] = int32(i)
					load += in.Sets[j].Count
				}
			}
		}
		in.Loads[i] = load
	}
	return in
}

// LoadOfTags returns the number of window documents annotated with any tag
// of s (the load a partition holding exactly s would receive).
func (in *Input) LoadOfTags(s tagset.Set) int64 {
	seen := make(map[int32]struct{})
	var load int64
	for _, t := range s {
		for _, j := range in.postings[t] {
			if _, ok := seen[j]; !ok {
				seen[j] = struct{}{}
				load += in.Sets[j].Count
			}
		}
	}
	return load
}

// Quality is the pair of reference statistics the Merger hands to the
// Disseminators when new partitions are installed (Section 7.2).
type Quality struct {
	AvgCom   float64 // mean notifications per tagset that notified anyone
	MaxLoad  float64 // largest single-Calculator share of notifications
	Gini     float64 // Gini coefficient of per-Calculator notifications
	Coverage float64 // fraction of window tagsets fully covered by a partition
}

// Evaluate computes the quality of a partitioning over a window snapshot,
// weighting each tagset by its occurrence count — the same statistics the
// Disseminator later maintains online.
func Evaluate(r *Result, sets []stream.WeightedSet) Quality {
	perPart := make([]int64, len(r.Parts))
	var notified, totalMsgs int64
	var covered, total int64
	for _, ws := range sets {
		if ws.Tags.IsEmpty() {
			continue
		}
		total += ws.Count
		touched := 0
		coveredHere := false
		for i, p := range r.Parts {
			if ws.Tags.Intersects(p.Tags) {
				touched++
				perPart[i] += ws.Count
			}
			if !coveredHere && ws.Tags.SubsetOf(p.Tags) {
				coveredHere = true
			}
		}
		if touched > 0 {
			notified += ws.Count
			totalMsgs += int64(touched) * ws.Count
		}
		if coveredHere {
			covered += ws.Count
		}
	}
	q := Quality{}
	if notified > 0 {
		q.AvgCom = float64(totalMsgs) / float64(notified)
	}
	q.MaxLoad = quality.MaxShareInts(perPart)
	q.Gini = quality.GiniInts(perPart)
	if total > 0 {
		q.Coverage = float64(covered) / float64(total)
	}
	return q
}
