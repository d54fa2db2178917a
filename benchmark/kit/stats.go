package kit

import (
	"math"
	"sort"
)

// Value is one reported number: its unit and how many samples it
// summarises (1 for a count or a single timing).
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// Quantile returns the q-quantile (0..1) of samples by the nearest-rank
// rule on a sorted copy; NaN for no samples. A percentile is only as good
// as the samples beyond it: the run lengths in BENCHMARK.json are chosen so
// every reported percentile has at least ten.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// Median is Quantile(samples, 0.5).
func Median(samples []float64) float64 { return Quantile(samples, 0.5) }

// Quartiles returns the first quartile, the median and the third quartile
// by the rule Python's statistics.quantiles(values, n=4) uses (exclusive
// method: position (n+1)·k/4, linear interpolation), which is how the
// benchmark's spread criterion is stated. Fewer than two samples give that
// sample (or NaN) three times.
func Quartiles(samples []float64) (q1, q2, q3 float64) {
	n := len(samples)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(n+1) * float64(k) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
