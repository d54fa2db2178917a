// Package graph models the tagset graph of Section 4: vertices are tagsets,
// with an edge between two tagsets that share a tag. Because the partitioning
// algorithms only ever need the connected components of this graph — and two
// tagsets are connected exactly when their tags are transitively linked — the
// implementation works on the equivalent tag-level graph using union-find,
// which is linear in the total number of tag occurrences.
//
// The package also provides the component statistics of the connectivity
// study (Section 8.2.6, Figure 7) and the Erdős–Rényi quantities used by the
// theoretical analysis (Section 5.1).
package graph

import (
	"sort"

	"repro/internal/dsu"
	"repro/internal/stream"
	"repro/internal/tagset"
)

// Component is one connected component of the tagset graph, flattened to the
// union of its tags plus aggregate statistics.
type Component struct {
	Tags tagset.Set // all tags of the component (the "disjoint set" of Alg 1)
	Load int64      // documents annotated with any tag of the component
	Sets int        // distinct tagsets merged into the component
}

// Components computes the connected components of the tagset graph induced
// by the given weighted tagsets. Each input tagset's Count contributes to
// the load of exactly one component (a document's tags all fall in the same
// component by construction). Empty tagsets are ignored. Components are
// returned in descending load order, ties broken by descending tag count.
func Components(sets []stream.WeightedSet) []Component {
	// Map tags to dense local ids.
	local := make(map[tagset.Tag]int)
	var tags []tagset.Tag
	id := func(t tagset.Tag) int {
		if i, ok := local[t]; ok {
			return i
		}
		i := len(tags)
		local[t] = i
		tags = append(tags, t)
		return i
	}
	d := dsu.New(0)
	for _, ws := range sets {
		if ws.Tags.IsEmpty() {
			continue
		}
		first := id(ws.Tags[0])
		d.Grow(first + 1)
		for _, t := range ws.Tags[1:] {
			d.Union(first, id(t))
		}
	}
	d.Grow(len(tags))

	// Aggregate per root.
	type agg struct {
		tags []tagset.Tag
		load int64
		sets int
	}
	byRoot := make(map[int]*agg)
	for i, t := range tags {
		r := d.Find(i)
		a := byRoot[r]
		if a == nil {
			a = &agg{}
			byRoot[r] = a
		}
		a.tags = append(a.tags, t)
	}
	for _, ws := range sets {
		if ws.Tags.IsEmpty() {
			continue
		}
		r := d.Find(local[ws.Tags[0]])
		a := byRoot[r]
		a.load += ws.Count
		a.sets++
	}

	out := make([]Component, 0, len(byRoot))
	for _, a := range byRoot {
		out = append(out, Component{Tags: tagset.New(a.tags...), Load: a.load, Sets: a.sets})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Load != out[j].Load {
			return out[i].Load > out[j].Load
		}
		if out[i].Tags.Len() != out[j].Tags.Len() {
			return out[i].Tags.Len() > out[j].Tags.Len()
		}
		// Total order: components equal in load and size would otherwise
		// keep the map-iteration order they were gathered in, making the
		// downstream partition packing — and with it every coefficient the
		// pipeline reports — differ between runs over identical input.
		return tagset.Compare(out[i].Tags, out[j].Tags) < 0
	})
	return out
}

// Stats summarises the connectivity of one window of documents, the three
// quantities of Figure 7.
type Stats struct {
	Components    int     // number of disjoint sets (Fig 7c)
	Tags          int     // distinct tags in the window
	Documents     int64   // documents in the window
	MaxTagsShare  float64 // largest component's share of distinct tags (Fig 7a)
	MaxLoadShare  float64 // largest component's share of documents (Fig 7b)
	LargestTags   int     // tags in the largest-tag component
	LargestLoad   int64   // documents related to the heaviest component
	DistinctPairs int64   // distinct co-occurring tag pairs (edges of the tag graph)
}

// WindowStats computes connectivity statistics over one batch of documents.
func WindowStats(docs []stream.Document) Stats {
	counts := make(map[tagset.Key]int64)
	pairs := make(map[[2]tagset.Tag]struct{})
	var nDocs int64
	for _, d := range docs {
		if d.Tags.IsEmpty() {
			continue
		}
		nDocs++
		counts[d.Tags.Key()]++
		for i := 0; i < d.Tags.Len(); i++ {
			for j := i + 1; j < d.Tags.Len(); j++ {
				pairs[[2]tagset.Tag{d.Tags[i], d.Tags[j]}] = struct{}{}
			}
		}
	}
	sets := make([]stream.WeightedSet, 0, len(counts))
	for k, c := range counts {
		sets = append(sets, stream.WeightedSet{Tags: k.Set(), Count: c})
	}
	comps := Components(sets)

	st := Stats{Components: len(comps), Documents: nDocs, DistinctPairs: int64(len(pairs))}
	var maxTags int
	var maxLoad int64
	for _, c := range comps {
		st.Tags += c.Tags.Len()
		if c.Tags.Len() > maxTags {
			maxTags = c.Tags.Len()
		}
		if c.Load > maxLoad {
			maxLoad = c.Load
		}
	}
	st.LargestTags = maxTags
	st.LargestLoad = maxLoad
	if st.Tags > 0 {
		st.MaxTagsShare = float64(maxTags) / float64(st.Tags)
	}
	if nDocs > 0 {
		st.MaxLoadShare = float64(maxLoad) / float64(nDocs)
	}
	return st
}
