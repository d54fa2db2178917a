package theory

import (
	"math"
	"math/rand"
	"testing"
)

func TestTweetLengthPMFNormalised(t *testing.T) {
	sum := 0.0
	for m := 1; m <= 8; m++ {
		sum += TweetLengthPMF(m, 8, 0.25)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("PMF sums to %g", sum)
	}
	if TweetLengthPMF(0, 8, 0.25) != 0 || TweetLengthPMF(9, 8, 0.25) != 0 {
		t.Error("out-of-range PMF not zero")
	}
	// Zipf: monotone decreasing in m.
	for m := 2; m <= 8; m++ {
		if TweetLengthPMF(m, 8, 0.25) >= TweetLengthPMF(m-1, 8, 0.25) {
			t.Errorf("PMF not decreasing at m=%d", m)
		}
	}
}

func TestExpectedEdgesScalesLinearly(t *testing.T) {
	e1 := ExpectedEdges(1000, 8, 0.25)
	e2 := ExpectedEdges(2000, 8, 0.25)
	if math.Abs(e2-2*e1) > 1e-6 {
		t.Errorf("E[M] not linear in t: %g vs %g", e1, e2)
	}
	if ExpectedEdges(0, 8, 0.25) != 0 {
		t.Error("E[M] for 0 tweets should be 0")
	}
	// A single-tag-only stream adds no edges.
	if ExpectedEdges(1000, 1, 0.25) != 0 {
		t.Error("mmax=1 should give zero edges")
	}
}

// TestPaperNPValues checks the worked example of Section 5.1: np ≈ 0.76 for
// a 5-minute window (mmax=8), np ≈ 1.52 for 10 minutes (mmax=8), and
// np ≈ 0.85 for 10 minutes with mmax=6. The paper reports rounded values;
// we allow ±0.06.
func TestPaperNPValues(t *testing.T) {
	sc := DefaultScenario()
	cases := []struct {
		minutes float64
		mmax    int
		want    float64
	}{
		{5, 8, 0.76},
		{10, 8, 1.52},
		{10, 6, 0.85},
	}
	for _, c := range cases {
		sc.WindowMinutes = c.minutes
		sc.MMax = c.mmax
		got := sc.NP()
		if math.Abs(got-c.want) > 0.06 {
			t.Errorf("np(%gmin, mmax=%d) = %.3f, want ≈ %.2f", c.minutes, c.mmax, got, c.want)
		}
	}
}

// TestMeasuredNP checks the paper's empirical correction: ~5.5M distinct
// pairs/day gives np ≈ 0.11 for a 10-minute window — far below the
// independence model's 1.52.
func TestMeasuredNP(t *testing.T) {
	sc := DefaultScenario()
	sc.WindowMinutes = 10
	got := sc.MeasuredNP(5_500_000)
	if math.Abs(got-0.11) > 0.03 {
		t.Errorf("measured np = %.3f, want ≈ 0.11", got)
	}
	if model := sc.NP(); got >= model {
		t.Errorf("measured np %.3f should be far below model np %.3f", got, model)
	}
}

func TestGiantComponentThreshold(t *testing.T) {
	if GiantComponentLikely(0.9) {
		t.Error("np=0.9 should not predict giant component")
	}
	if !GiantComponentLikely(1.5) {
		t.Error("np=1.5 should predict giant component")
	}
}

func TestNPEdgeCases(t *testing.T) {
	if NP(1, 100) != 0 || NP(0, 5) != 0 {
		t.Error("degenerate vocabulary should give np=0")
	}
}

func TestExpectedCommunicationBounds(t *testing.T) {
	// E[comm] must lie in [0, k]; dense regimes (many formation tweets per
	// partition) stay at or above 1.
	cases := []struct {
		v, n, k int64
		m       int
	}{
		{600000, 100000, 10, 3},
		{100, 1000, 5, 2},
		{50, 10000, 20, 4},
	}
	for _, c := range cases {
		e := ExpectedCommunication(c.v, c.n, c.k, c.m)
		if e < 0 || e > float64(c.k)+1e-9 {
			t.Errorf("E[comm](%+v) = %g out of [0,k]", c, e)
		}
	}
}

// TestCommunicationRegimes checks the qualitative claim of Section 5.2:
// small vocabulary + many tags per tweet ≈ broadcast (knockout blow), large
// vocabulary + few tags per tweet ≈ tractable.
func TestCommunicationRegimes(t *testing.T) {
	// Small vocabulary, long tweets: nearly all k partitions touched.
	knockout := ExpectedCommunication(40, 10000, 10, 8)
	if knockout < 9.5 {
		t.Errorf("small-vocab E[comm] = %g, want ≈ 10 (broadcast)", knockout)
	}
	// Twitter regime: vast vocabulary, couple of tags.
	twitter := ExpectedCommunication(600_000, 100_000, 10, 2)
	if twitter > 3 {
		t.Errorf("twitter-regime E[comm] = %g, want small", twitter)
	}
	// In the sparse regime a random tweet can miss every partition, so the
	// model's expectation may drop below 1 — but never below 0.
	if twitter < 0 {
		t.Errorf("E[comm] negative: %g", twitter)
	}
}

func TestExpectedCommunicationMonotoneInK(t *testing.T) {
	prev := 0.0
	for _, k := range []int64{2, 5, 10, 20} {
		e := ExpectedCommunication(10_000, 50_000, k, 3)
		if e < prev {
			t.Errorf("E[comm] decreased at k=%d: %g < %g", k, e, prev)
		}
		prev = e
	}
}

func TestExpectedCommunicationDegenerate(t *testing.T) {
	if got := ExpectedCommunication(0, 100, 10, 3); got != 1 {
		t.Errorf("v=0 → %g, want 1", got)
	}
	if got := ExpectedCommunication(100, 0, 10, 3); got != 1 {
		t.Errorf("n=0 → %g, want 1", got)
	}
	if got := ExpectedCommunication(100, 10, 0, 3); got != 0 {
		t.Errorf("k=0 → %g, want 0", got)
	}
	// m > v-m forces every partition to be touched.
	if got := ExpectedCommunication(10, 1000, 4, 6); math.Abs(got-4) > 1e-9 {
		t.Errorf("m>v-m → %g, want k=4", got)
	}
}

// TestCommunicationLoadNormalisation checks the two regimes of the
// expected communication as a share of the broadcast overhead k-1: a
// small vocabulary with many tweets touches nearly every partition, a
// large one with few tweets nearly one, and one partition is never
// exceeded.
func TestCommunicationLoadNormalisation(t *testing.T) {
	load := func(v, n, k int64, m int) float64 {
		return (ExpectedCommunication(v, n, k, m) - 1) / float64(k-1)
	}
	if got := load(40, 10000, 10, 8); got < 0.9 {
		t.Errorf("broadcast regime load = %g, want ≈ 1", got)
	}
	if got := load(600_000, 1000, 10, 2); got > 0.2 {
		t.Errorf("sparse regime load = %g, want ≈ 0", got)
	}
	if got := ExpectedCommunication(100, 100, 1, 2); got > 1 {
		t.Errorf("one partition: E[comm] = %g, want at most 1", got)
	}
}

func TestMissProbability(t *testing.T) {
	// v=4, m=1: C(3,1)/C(4,1) = 3/4.
	if got := missProbability(4, 1); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("missProbability(4,1) = %g, want 0.75", got)
	}
	// v=6, m=2: C(4,2)/C(6,2) = 6/15 = 0.4.
	if got := missProbability(6, 2); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("missProbability(6,2) = %g, want 0.4", got)
	}
	if got := missProbability(4, 3); got != 0 {
		t.Errorf("impossible avoidance = %g, want 0", got)
	}
}

func TestScenarioString(t *testing.T) {
	if s := DefaultScenario().String(); s == "" {
		t.Error("empty String()")
	}
}

// TestExpectedCommunicationMonteCarlo validates the Section 5.2 model
// against simulation: k random equal-sized partitions are formed from n
// random m-tag tweets over a v-tag vocabulary, and the measured mean
// number of partitions touched by fresh random tweets is compared with the
// closed form.
func TestExpectedCommunicationMonteCarlo(t *testing.T) {
	const (
		v = 200
		n = 500
		k = 5
		m = 3
	)
	r := rand.New(rand.NewSource(77))
	drawTags := func() []int {
		seen := map[int]bool{}
		out := make([]int, 0, m)
		for len(out) < m {
			tg := r.Intn(v)
			if !seen[tg] {
				seen[tg] = true
				out = append(out, tg)
			}
		}
		return out
	}

	const trials = 60
	var measured float64
	var samples int
	for trial := 0; trial < trials; trial++ {
		// Form k partitions from n tweets, n/k tweets each.
		parts := make([]map[int]bool, k)
		for i := range parts {
			parts[i] = map[int]bool{}
		}
		for i := 0; i < n; i++ {
			p := parts[i%k]
			for _, tg := range drawTags() {
				p[tg] = true
			}
		}
		for q := 0; q < 50; q++ {
			tags := drawTags()
			touched := 0
			for _, p := range parts {
				for _, tg := range tags {
					if p[tg] {
						touched++
						break
					}
				}
			}
			measured += float64(touched)
			samples++
		}
	}
	measured /= float64(samples)
	model := ExpectedCommunication(v, n, k, m)
	if model <= 0 {
		t.Fatalf("model = %g", model)
	}
	rel := math.Abs(measured-model) / model
	if rel > 0.1 {
		t.Errorf("Monte Carlo %.3f vs model %.3f (rel err %.3f)", measured, model, rel)
	}
}
