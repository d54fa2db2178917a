// Package kit is what the end-to-end harness (package main in the parent
// directory) and the layer replay (../layers) share: the workloads' seeded
// document streams and the pipeline configuration they run through, the
// in-process HTTP client, the in-memory span recorder, and the order
// statistics every reported number goes through. Of the processing layers
// it touches only core.Config and core.DefaultConfig, which are inside the
// harness's import waist (../README.md).
package kit

import (
	"fmt"
	"hash/fnv"

	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/twitgen"
)

// ReportEvery is the virtual reporting period and Partitioner window every
// workload runs with: 60 virtual seconds, PeriodLen documents at the
// generator's 65 tagged documents per virtual second.
var ReportEvery = stream.Seconds(60)

// PeriodLen is the number of documents in one reporting period.
const PeriodLen = 3900

// GateDocs is the prefix handed over before the clock starts: two reporting
// periods. The first fills the Partitioners' window, from which the first
// partitioning is computed and installed; the second is counted under that
// partitioning, so that its report primes the trend predictors and the
// first period closed inside the measured window already raises alerts. The
// window itself starts on a period boundary.
const GateDocs = 2 * PeriodLen

// Shape names a document-stream shape.
type Shape string

const (
	// Narrow is the stationary twitgen default (Zipf tags-per-document with
	// skew 0.25, at most 8 tags): the common short-document hot path.
	Narrow Shape = "narrow"
	// Wide draws the tags-per-document count uniformly from 1..10 over
	// 16-tag topic vocabularies, so subset enumeration dominates.
	Wide Shape = "wide"
)

// GenConfig is the generator configuration of a shape. Both shapes are
// stationary (no drift, no new tags): the tag vocabulary and the
// co-occurrence graph are fixed by the seed, so the work a document costs
// does not depend on how far the run got.
func GenConfig(shape Shape, seed int64) (twitgen.Config, error) {
	cfg := twitgen.Default()
	cfg.Seed = seed
	cfg.DriftInterval = 0
	cfg.NewTagProb = 0
	switch shape {
	case Narrow:
	case Wide:
		cfg.Topics = 5000
		cfg.TagsPerTopic = 16
		cfg.MaxTags = 10
		cfg.LengthSkew = 0
	default:
		return cfg, fmt.Errorf("kit: unknown stream shape %q", shape)
	}
	return cfg, nil
}

// Stream is a materialised document stream and the dictionary its tags
// were interned into.
type Stream struct {
	Docs []stream.Document
	Dict *tagset.Dictionary
	Hash uint64
}

// Generate materialises the first n documents of a shape's stream.
func Generate(shape Shape, seed int64, n int) (*Stream, error) {
	cfg, err := GenConfig(shape, seed)
	if err != nil {
		return nil, err
	}
	dict := tagset.NewDictionary()
	g, err := twitgen.New(cfg, dict)
	if err != nil {
		return nil, err
	}
	docs := g.Generate(n)
	return &Stream{Docs: docs, Dict: dict, Hash: HashDocs(docs)}, nil
}

// HashDocs fingerprints a document slice (FNV-64a over id, time and tag
// identifiers): two streams collide only if they agree document for
// document.
func HashDocs(docs []stream.Document) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, d := range docs {
		put(d.ID)
		put(uint64(d.Time))
		put(uint64(d.Tags.Len()))
		for _, t := range d.Tags {
			put(uint64(t))
		}
	}
	return h.Sum64()
}

// PeriodOf returns the reporting period a document belongs to. Period P
// covers virtual time [(P-1)·ReportEvery, P·ReportEvery); it is closed by
// the first document of period P+1, its trigger document.
func PeriodOf(d stream.Document) int64 { return int64(d.Time/ReportEvery) + 1 }

// PeriodDocs returns the documents of one reporting period.
func PeriodDocs(docs []stream.Document, period int64) []stream.Document {
	lo, hi := -1, len(docs)
	for i, d := range docs {
		p := PeriodOf(d)
		if p == period && lo < 0 {
			lo = i
		}
		if p > period {
			hi = i
			break
		}
	}
	if lo < 0 {
		return nil
	}
	return docs[lo:hi]
}
