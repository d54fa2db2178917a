// Package zipf provides seeded sampling from bounded Zipf distributions with
// arbitrary skew s >= 0, including the s < 1 range that math/rand's Zipf
// rejects. The paper's tweet-length model (Section 5.1) uses
// f(m, mmax, s) = (1/m^s) / sum_{i=1..mmax} 1/i^s with s = 0.25, so the
// generator needs exactly this capability.
package zipf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Dist is a bounded Zipf distribution over {1, ..., N} with skew s:
// P(X = m) proportional to 1/m^s.
type Dist struct {
	n   int
	cdf []float64 // cdf[i] = P(X <= i+1)
}

// New constructs the distribution over {1..n} with skew s. It panics if
// n < 1 or s < 0, which indicate programmer error.
func New(n int, s float64) *Dist {
	if n < 1 {
		panic(fmt.Sprintf("zipf: n = %d < 1", n))
	}
	if s < 0 {
		panic(fmt.Sprintf("zipf: s = %g < 0", s))
	}
	d := &Dist{n: n, cdf: make([]float64, n)}
	total := 0.0
	for i := 1; i <= n; i++ {
		total += math.Pow(float64(i), -s)
		d.cdf[i-1] = total
	}
	for i := range d.cdf {
		d.cdf[i] /= total
	}
	d.cdf[n-1] = 1 // guard against rounding
	return d
}

// Sample draws one value in {1..n} using r.
func (d *Dist) Sample(r *rand.Rand) int {
	u := r.Float64()
	// Binary search the CDF: smallest i with cdf[i] >= u.
	i := sort.SearchFloat64s(d.cdf, u)
	if i >= d.n {
		i = d.n - 1
	}
	return i + 1
}
