package twitgen

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/theory"
)

func mustGen(t *testing.T, cfg Config) *Generator {
	t.Helper()
	g, err := New(cfg, tagset.NewDictionary())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.TPS = 0 },
		func(c *Config) { c.Topics = 0 },
		func(c *Config) { c.TagsPerTopic = 0 },
		func(c *Config) { c.MaxTags = 0 },
		func(c *Config) { c.MaxTags = 30 },
		func(c *Config) { c.LengthSkew = -1 },
		func(c *Config) { c.MixProb = 1.5 },
		func(c *Config) { c.NewTagProb = -0.1 },
		// Negative skews would panic inside zipf.New; negative drift would
		// loop maybeDrift forever — the gaps configparity surfaced.
		func(c *Config) { c.TopicSkew = -0.5 },
		func(c *Config) { c.TagSkew = -0.5 },
		func(c *Config) { c.DriftInterval = -1 },
	}
	for i, mutate := range bad {
		cfg := Default()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if Default().Validate() != nil {
		t.Error("default config rejected")
	}
}

func TestDeterminism(t *testing.T) {
	a := mustGen(t, Default())
	b := mustGen(t, Default())
	for i := 0; i < 500; i++ {
		da, db := a.Next(), b.Next()
		if da.ID != db.ID || da.Time != db.Time || !da.Tags.Equal(db.Tags) {
			t.Fatalf("doc %d diverged: %+v vs %+v", i, da, db)
		}
	}
	cfg := Default()
	cfg.Seed = 2
	c := mustGen(t, cfg)
	same := true
	for i := 0; i < 50; i++ {
		if !a.Next().Tags.Equal(c.Next().Tags) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestDocumentShape(t *testing.T) {
	g := mustGen(t, Default())
	var last stream.Millis = -1
	for i := 0; i < 2000; i++ {
		d := g.Next()
		if d.Tags.Len() < 1 || d.Tags.Len() > 8 {
			t.Fatalf("doc with %d tags", d.Tags.Len())
		}
		if d.Time < last {
			t.Fatalf("time went backwards: %d after %d", d.Time, last)
		}
		last = d.Time
		if d.ID != uint64(i+1) {
			t.Fatalf("ID = %d, want %d", d.ID, i+1)
		}
	}
}

// TestLengthDistribution verifies the Zipf(s=0.25) tags-per-tweet shape the
// paper measured: decreasing frequency in m with mild skew.
func TestLengthDistribution(t *testing.T) {
	cfg := Default()
	cfg.NewTagProb = 0
	g := mustGen(t, cfg)
	counts := make([]int, cfg.MaxTags+1)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[g.Next().Tags.Len()]++
	}
	for m := 2; m <= cfg.MaxTags; m++ {
		if counts[m] > counts[m-1] {
			t.Errorf("length %d more frequent than %d (%d vs %d)", m, m-1, counts[m], counts[m-1])
		}
	}
	// Compare against the theoretical pmf within 2 percentage points.
	for m := 1; m <= cfg.MaxTags; m++ {
		want := theory.TweetLengthPMF(m, cfg.MaxTags, cfg.LengthSkew)
		got := float64(counts[m]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("P(len=%d) = %.3f, model %.3f", m, got, want)
		}
	}
}

// TestTopicalComponents checks the structural property the whole paper
// rests on: with topic vocabularies and little mixing, a short window's tag
// graph has many small connected components.
func TestTopicalComponents(t *testing.T) {
	cfg := Default()
	cfg.MixProb = 0
	cfg.NewTagProb = 0
	cfg.DriftInterval = 0
	g := mustGen(t, cfg)
	docs := g.Generate(5000)
	st := graph.WindowStats(docs)
	if st.Components < 50 {
		t.Errorf("only %d components; topical clustering broken", st.Components)
	}
	// No mixing: no component can span two topic vocabularies, so no
	// component exceeds one topic's tag count.
	if st.LargestTags > cfg.TagsPerTopic {
		t.Errorf("largest component has %d tags > topic size %d", st.LargestTags, cfg.TagsPerTopic)
	}
}

// TestMixingGrowsComponents checks the α<1 giant-component regime: raising
// MixProb must produce a dominant connected component.
func TestMixingGrowsComponents(t *testing.T) {
	base := Default()
	base.MixProb = 0
	base.NewTagProb = 0
	mixed := base
	mixed.MixProb = 0.3
	g0 := mustGen(t, base)
	g1 := mustGen(t, mixed)
	s0 := graph.WindowStats(g0.Generate(8000))
	s1 := graph.WindowStats(g1.Generate(8000))
	if s1.MaxTagsShare <= s0.MaxTagsShare {
		t.Errorf("mixing did not grow the largest component: %.3f vs %.3f",
			s1.MaxTagsShare, s0.MaxTagsShare)
	}
	if s1.MaxTagsShare < 0.5 {
		t.Errorf("30%% mixing should produce a giant component; share = %.3f", s1.MaxTagsShare)
	}
}

func TestNewTagInjection(t *testing.T) {
	cfg := Default()
	cfg.NewTagProb = 0.05
	g := mustGen(t, cfg)
	// Every injected tag is a fresh name, so the dictionary grows by
	// exactly the tags injected.
	dictBefore := g.Dict().Len()
	g.Generate(5000)
	if g.Dict().Len() <= dictBefore {
		t.Error("no new tags introduced at 5% injection: the dictionary did not grow")
	}
	cfgOff := Default()
	cfgOff.NewTagProb = 0
	g2 := mustGen(t, cfgOff)
	offBefore := g2.Dict().Len()
	g2.Generate(5000)
	if g2.Dict().Len() != offBefore {
		t.Error("new tags introduced with injection disabled")
	}
}

// TestDriftShiftsTopics: with drift enabled, the set of dominant tags in an
// early window differs from a late window.
func TestDriftShiftsTopics(t *testing.T) {
	cfg := Default()
	cfg.DriftInterval = stream.Minutes(1)
	cfg.NewTagProb = 0
	g := mustGen(t, cfg)
	topTags := func(docs []stream.Document) map[tagset.Tag]int {
		counts := make(map[tagset.Tag]int)
		for _, d := range docs {
			for _, tg := range d.Tags {
				counts[tg]++
			}
		}
		return counts
	}
	early := topTags(g.Generate(10000))
	// Skip ahead several drift intervals.
	for i := 0; i < 40000; i++ {
		g.Next()
	}
	late := topTags(g.Generate(10000))
	// The most frequent early tag should have lost prominence.
	var maxTag tagset.Tag
	maxN := 0
	for tg, n := range early {
		if n > maxN {
			maxTag, maxN = tg, n
		}
	}
	if late[maxTag] >= maxN {
		t.Errorf("dominant tag kept count %d -> %d despite drift", maxN, late[maxTag])
	}
}

func TestTPSPacing(t *testing.T) {
	cfg := Default()
	cfg.TPS = 1300
	cfg.TaggedFraction = 0.05
	g := mustGen(t, cfg)
	docs := g.Generate(6500)
	elapsed := docs[len(docs)-1].Time - docs[0].Time
	// 6500 tagged docs at 1300*0.05 = 65 tagged/s ≈ 100 seconds.
	if elapsed < 98000 || elapsed > 102000 {
		t.Errorf("6500 docs spanned %dms, want ≈ 100000", elapsed)
	}
	// A 5-minute window at the default rate holds ~19500 tagged docs.
	cfg2 := Default()
	g2 := mustGen(t, cfg2)
	n := 0
	for d := g2.Next(); d.Time < 5*60*1000; d = g2.Next() {
		n++
	}
	if n < 19000 || n > 20000 {
		t.Errorf("5-minute window holds %d tagged docs, want ≈ 19500", n)
	}
}

func TestTaggedFractionValidation(t *testing.T) {
	cfg := Default()
	cfg.TaggedFraction = 0
	if cfg.Validate() == nil {
		t.Error("zero TaggedFraction accepted")
	}
	cfg = Default()
	cfg.TPS = 10
	cfg.TaggedFraction = 0.01 // 0.1 tagged/s → invalid
	if cfg.Validate() == nil {
		t.Error("sub-1 tagged rate accepted")
	}
}
