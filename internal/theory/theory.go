// Package theory implements the analytical models of Section 5: the
// Zipf-distributed tweet-length frequency f(m, mmax, s), the expected number
// of tag-graph edges E[M], the Erdős–Rényi np criterion that predicts
// whether the Disjoint Sets algorithm faces a giant connected component
// (Section 5.1), and the expected communication load of random equal-sized
// partitions (Section 5.2).
package theory

import (
	"fmt"
	"math"
)

// TweetLengthPMF returns f(m, mmax, s) = (1/m^s) / sum_{i=1..mmax} 1/i^s,
// the probability that a tweet carries exactly m tags under the paper's
// Zipf model (skew s = 0.25 measured on Twitter data). m outside
// {1..mmax} has probability 0.
func TweetLengthPMF(m, mmax int, s float64) float64 {
	if m < 1 || m > mmax {
		return 0
	}
	norm := 0.0
	for i := 1; i <= mmax; i++ {
		norm += math.Pow(float64(i), -s)
	}
	return math.Pow(float64(m), -s) / norm
}

// ExpectedEdges returns E[M], the expected number of tag-pair edges added to
// the co-occurrence graph by t distinct tweets, under the independence
// model of Section 5.1:
//
//	E[M] = t * sum_{m=2..mmax} f(m, mmax, s) * C(m, 2)
func ExpectedEdges(t int64, mmax int, s float64) float64 {
	sum := 0.0
	for m := 2; m <= mmax; m++ {
		sum += TweetLengthPMF(m, mmax, s) * float64(m*(m-1)/2)
	}
	return float64(t) * sum
}

// NP returns the Erdős–Rényi connectivity parameter n*p for a G(n, M)
// graph with n vertices (tags) and M edges: p = M / C(n,2), so
// np = 2M/(n-1). For np < 1 the largest component is O(log n); for np > 1 a
// giant component is likely — the regime in which plain DS partitioning
// degrades.
func NP(n int64, edges float64) float64 {
	if n < 2 {
		return 0
	}
	return 2 * edges / float64(n-1)
}

// NPForWindow combines the two: the np value of the tag graph after
// observing t distinct tweets over a vocabulary of n distinct tags, with
// tweet lengths Zipf(s) capped at mmax.
func NPForWindow(t, n int64, mmax int, s float64) float64 {
	return NP(n, ExpectedEdges(t, mmax, s))
}

// GiantComponentLikely applies the Erdős–Rényi threshold.
func GiantComponentLikely(np float64) bool { return np > 1 }

// ExpectedCommunication returns the expected number of partitions a single
// tweet touches, under the random-partition model of Section 5.2:
//
//	E[comm] = k * (1 - (C(v-m, m)/C(v, m))^(n/k))
//
// with vocabulary size v, n tweets over which partitions were formed, k
// partitions, and m tags per tweet. A value of 1 means zero communication
// overhead; k means full broadcast. It returns k when m > v-m (the ratio's
// numerator vanishes: every partition is touched).
func ExpectedCommunication(v, n, k int64, m int) float64 {
	if k <= 0 {
		return 0
	}
	if v <= 0 || m <= 0 || n <= 0 {
		return 1
	}
	ratio := missProbability(v, m)
	return float64(k) * (1 - math.Pow(ratio, float64(n)/float64(k)))
}

// missProbability returns C(v-m, m) / C(v, m): the probability that a random
// m-subset of the vocabulary avoids a fixed disjoint m-subset.
// Computed in log space to stay stable for large v.
func missProbability(v int64, m int) float64 {
	if int64(m) > v-int64(m) {
		return 0
	}
	// C(v-m,m)/C(v,m) = prod_{i=0..m-1} (v-2m+1+i ... ) — use lgamma.
	lg := func(x float64) float64 { r, _ := math.Lgamma(x); return r }
	num := lg(float64(v-int64(m))+1) - lg(float64(int64(m))+1) - lg(float64(v-2*int64(m))+1)
	den := lg(float64(v)+1) - lg(float64(int64(m))+1) - lg(float64(v-int64(m))+1)
	return math.Exp(num - den)
}

// PaperScenario reproduces the worked example of Section 5.1: the full
// Twitter stream assumed to have 600,000 distinct tags and 7,000,000
// distinct tweets per day, with a window of the given minutes.
type PaperScenario struct {
	DistinctTagsPerDay   int64
	DistinctTweetsPerDay int64
	WindowMinutes        float64
	MMax                 int
	Skew                 float64
}

// DefaultScenario returns the paper's worst-case full-stream parameters.
func DefaultScenario() PaperScenario {
	return PaperScenario{
		DistinctTagsPerDay:   600_000,
		DistinctTweetsPerDay: 7_000_000,
		WindowMinutes:        5,
		MMax:                 8,
		Skew:                 0.25,
	}
}

// NP returns the model's np value for the scenario's window: tweets scale
// with window length; the tag vocabulary is taken as the per-day distinct
// tags (the paper's conservative choice).
func (sc PaperScenario) NP() float64 {
	frac := sc.WindowMinutes / (24 * 60)
	t := int64(float64(sc.DistinctTweetsPerDay) * frac)
	return NPForWindow(t, sc.DistinctTagsPerDay, sc.MMax, sc.Skew)
}

// MeasuredNP returns np when the number of edges is taken from an observed
// distinct-pairs-per-day count instead of the independence model (the
// paper measures ~5.5M distinct pairs/day → np = 0.11 per 10 minutes).
func (sc PaperScenario) MeasuredNP(distinctPairsPerDay int64) float64 {
	frac := sc.WindowMinutes / (24 * 60)
	edges := float64(distinctPairsPerDay) * frac
	return NP(sc.DistinctTagsPerDay, edges)
}

// String renders the scenario compactly.
func (sc PaperScenario) String() string {
	return fmt.Sprintf("tags=%d tweets=%d window=%gmin mmax=%d s=%g",
		sc.DistinctTagsPerDay, sc.DistinctTweetsPerDay, sc.WindowMinutes, sc.MMax, sc.Skew)
}
