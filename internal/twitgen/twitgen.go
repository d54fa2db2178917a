// Package twitgen generates a synthetic stream of tagged documents that
// reproduces the statistics of the Twitter streams the paper evaluates on
// (Sections 5.1 and 8): the number of tags per tweet follows a bounded Zipf
// law with skew s = 0.25 and a cap of mmax tags; tags come from
// topic-specific vocabularies with Zipf-distributed within-topic
// popularity, so the tag co-occurrence graph falls apart into many small
// connected components; a configurable cross-topic mixing probability α
// creates the large-component regime the paper's theory warns about; and
// topic drift plus new-tag injection reproduce the dynamics (Section 7)
// that drive Single Additions and repartitions.
//
// The generator is fully deterministic given its seed, making every
// experiment repeatable — the role the paper's recorded 6-hour tweet file
// plays.
package twitgen

import (
	"fmt"
	"math/rand"

	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/zipf"
)

// Config parameterises the synthetic stream.
type Config struct {
	// Seed is the RNG seed; equal seeds give byte-identical streams.
	Seed int64 //vet:ok configparity -- every int64 is a valid seed
	TPS  int   // full-stream arrival rate (tweets per second of virtual time)

	// TaggedFraction is the share of tweets carrying at least one hashtag.
	// The generator emits only tagged tweets (the Parser drops the rest
	// anyway) but advances virtual time at the full TPS rate, so a
	// 5-minute window at tps=1300 holds 1300*300*TaggedFraction tagged
	// documents — matching the paper's observation that of ~15M daily
	// tweets only ~700k are distinct tagged ones (≈5%).
	TaggedFraction float64

	Topics       int     // number of topic vocabularies
	TagsPerTopic int     // initial tags per topic
	TopicSkew    float64 // Zipf skew of topic popularity
	TagSkew      float64 // Zipf skew of within-topic tag popularity

	LengthSkew float64 // Zipf skew of tags-per-tweet (paper: 0.25)
	MaxTags    int     // cap on tags per tweet (paper: 8)

	// MixProb is the probability that an individual tag is drawn from a
	// random other topic instead of the tweet's topic, linking topic
	// vocabularies (the paper's 1-α joint-vocabulary discussion, §5.1).
	MixProb float64

	// NewTagProb is the probability that a tag slot introduces a brand-new
	// tag into the tweet's topic, growing the vocabulary over time and
	// producing the unseen tagsets that trigger Single Additions.
	NewTagProb float64

	// DriftInterval rotates topic popularity every interval of virtual
	// time, modelling content drift; 0 disables drift.
	DriftInterval stream.Millis
}

// Default returns the configuration used by the experiments: calibrated to
// the stream statistics the paper reports (s=0.25, mmax=8, topical
// clustering with light mixing and drift).
func Default() Config {
	return Config{
		Seed:           1,
		TPS:            1300,
		TaggedFraction: 0.05,
		Topics:         5000,
		TagsPerTopic:   12,
		TopicSkew:      1.0,
		TagSkew:        1.0,
		LengthSkew:     0.25,
		MaxTags:        8,
		MixProb:        0.003,
		NewTagProb:     0.01,
		DriftInterval:  stream.Minutes(2),
	}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.TPS <= 0:
		return fmt.Errorf("twitgen: TPS = %d", c.TPS)
	case c.TaggedFraction <= 0 || c.TaggedFraction > 1:
		return fmt.Errorf("twitgen: TaggedFraction = %g", c.TaggedFraction)
	case int(float64(c.TPS)*c.TaggedFraction) < 1:
		return fmt.Errorf("twitgen: TPS*TaggedFraction = %g < 1 tagged tweet/s",
			float64(c.TPS)*c.TaggedFraction)
	case c.Topics <= 0:
		return fmt.Errorf("twitgen: Topics = %d", c.Topics)
	case c.TagsPerTopic <= 0:
		return fmt.Errorf("twitgen: TagsPerTopic = %d", c.TagsPerTopic)
	case c.MaxTags < 1 || c.MaxTags > 16:
		return fmt.Errorf("twitgen: MaxTags = %d (want 1..16)", c.MaxTags)
	case c.TopicSkew < 0:
		return fmt.Errorf("twitgen: TopicSkew = %g", c.TopicSkew)
	case c.TagSkew < 0:
		return fmt.Errorf("twitgen: TagSkew = %g", c.TagSkew)
	case c.LengthSkew < 0:
		return fmt.Errorf("twitgen: LengthSkew = %g", c.LengthSkew)
	case c.MixProb < 0 || c.MixProb > 1:
		return fmt.Errorf("twitgen: MixProb = %g", c.MixProb)
	case c.NewTagProb < 0 || c.NewTagProb > 1:
		return fmt.Errorf("twitgen: NewTagProb = %g", c.NewTagProb)
	case c.DriftInterval < 0:
		return fmt.Errorf("twitgen: DriftInterval = %d", c.DriftInterval)
	}
	return nil
}

// Generator produces the document stream.
type Generator struct {
	cfg    Config
	dict   *tagset.Dictionary
	rng    *rand.Rand
	clock  *stream.Clock
	length *zipf.Dist

	topics     [][]tagset.Tag // per-topic vocabulary
	topicOrder []int          // popularity rank -> topic index (rotated by drift)
	topicDist  *zipf.Dist
	tagDists   map[int]*zipf.Dist // per-vocabulary-size tag sampler cache

	nextID    uint64
	nextDrift stream.Millis
}

// New constructs a generator. Tags are interned into dict so that
// downstream components and the caller share one namespace.
func New(cfg Config, dict *tagset.Dictionary) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:       cfg,
		dict:      dict,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		clock:     stream.NewClock(int(float64(cfg.TPS) * cfg.TaggedFraction)),
		length:    zipf.New(cfg.MaxTags, cfg.LengthSkew),
		topicDist: zipf.New(cfg.Topics, cfg.TopicSkew),
		tagDists:  make(map[int]*zipf.Dist),
	}
	g.topics = make([][]tagset.Tag, cfg.Topics)
	g.topicOrder = make([]int, cfg.Topics)
	for i := range g.topics {
		g.topicOrder[i] = i
		vocab := make([]tagset.Tag, cfg.TagsPerTopic)
		for j := range vocab {
			vocab[j] = dict.Intern(fmt.Sprintf("t%d_%d", i, j))
		}
		g.topics[i] = vocab
	}
	if cfg.DriftInterval > 0 {
		g.nextDrift = cfg.DriftInterval
	}
	return g, nil
}

// Dict returns the tag dictionary the generator interns into.
func (g *Generator) Dict() *tagset.Dictionary { return g.dict }

// Next produces the next document. Every document has at least one tag
// (untagged tweets never enter the topology: the Parser drops them, so the
// generator models the tagged sub-stream directly).
func (g *Generator) Next() stream.Document {
	t := g.clock.Next()
	g.maybeDrift(t)

	topic := g.topicOrder[g.topicDist.Sample(g.rng)-1]
	m := g.length.Sample(g.rng)

	tags := make([]tagset.Tag, 0, m)
	for len(tags) < m {
		tg := g.drawTag(topic)
		dup := false
		for _, have := range tags {
			if have == tg {
				dup = true
				break
			}
		}
		if !dup {
			tags = append(tags, tg)
		}
	}
	g.nextID++
	return stream.Document{ID: g.nextID, Time: t, Tags: tagset.New(tags...)}
}

// drawTag picks one tag for a tweet of the given topic, applying mixing and
// new-tag injection.
func (g *Generator) drawTag(topic int) tagset.Tag {
	if g.cfg.NewTagProb > 0 && g.rng.Float64() < g.cfg.NewTagProb {
		idx := len(g.topics[topic])
		tg := g.dict.Intern(fmt.Sprintf("t%d_%d", topic, idx))
		g.topics[topic] = append(g.topics[topic], tg)
		return tg
	}
	if g.cfg.MixProb > 0 && g.cfg.Topics > 1 && g.rng.Float64() < g.cfg.MixProb {
		other := g.rng.Intn(g.cfg.Topics - 1)
		if other >= topic {
			other++
		}
		topic = other
	}
	vocab := g.topics[topic]
	d := g.tagDists[len(vocab)]
	if d == nil {
		d = zipf.New(len(vocab), g.cfg.TagSkew)
		g.tagDists[len(vocab)] = d
	}
	return vocab[d.Sample(g.rng)-1]
}

// maybeDrift models bursty content drift at every drift boundary: a topic
// from the cold tail of the popularity ranking surges to the top rank
// (an emerging event), pushing every hotter topic down one rank. Partitions
// formed before the burst carry the surging topic's tags on whichever node
// happened to hold its (previously cold) component — the load- and
// communication-degradation source of Section 7.
func (g *Generator) maybeDrift(now stream.Millis) {
	if g.cfg.DriftInterval <= 0 {
		return
	}
	for now >= g.nextDrift {
		n := len(g.topicOrder)
		pick := n/2 + g.rng.Intn(n-n/2)
		surging := g.topicOrder[pick]
		copy(g.topicOrder[1:pick+1], g.topicOrder[:pick])
		g.topicOrder[0] = surging
		// The emerging event mints fresh hashtags that immediately rank
		// among the topic's hottest (inserted at the head of the
		// popularity order) — the unseen tag combinations that drive
		// Single Additions and partition-quality decay (Section 7).
		if g.cfg.NewTagProb > 0 {
			vocab := g.topics[surging]
			for j := 0; j < 2; j++ {
				tg := g.dict.Intern(fmt.Sprintf("t%d_%d", surging, len(vocab)))
				vocab = append(vocab, 0)
				copy(vocab[1:], vocab)
				vocab[0] = tg
			}
			g.topics[surging] = vocab
		}
		g.nextDrift += g.cfg.DriftInterval
	}
}

// Generate produces the next n documents as a slice.
func (g *Generator) Generate(n int) []stream.Document {
	docs := make([]stream.Document, n)
	for i := range docs {
		docs[i] = g.Next()
	}
	return docs
}
