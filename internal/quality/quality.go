// Package quality implements the partition-quality measures of the paper's
// evaluation: the Gini coefficient of per-node processing load (Section
// 8.2.2), the maxLoad share (Section 7.2), and the time-series recording
// used by the figure-over-time experiments. (Instrumentation — counters,
// histograms, /metrics — is internal/telemetry.)
package quality

import "sort"

// gini returns the Gini coefficient of the given non-negative values,
// the paper's measure of load dispersion (Section 8.2.2). It is 0 for a
// perfectly balanced distribution and approaches 1-1/n for the case where a
// single node carries all the load. It returns 0 for empty input or when all
// values are zero.
func gini(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, values)
	sort.Float64s(sorted)
	var sum, weighted float64
	for i, v := range sorted {
		sum += v
		weighted += float64(i+1) * v
	}
	if sum == 0 {
		return 0
	}
	// G = (2 * sum_i i*x_(i) ) / (n * sum x) - (n+1)/n with x sorted ascending.
	return 2*weighted/(float64(n)*sum) - float64(n+1)/float64(n)
}

// GiniInts is the Gini coefficient of integer counts.
func GiniInts(counts []int64) float64 {
	vals := make([]float64, len(counts))
	for i, c := range counts {
		vals[i] = float64(c)
	}
	return gini(vals)
}

// maxShare returns the largest value's share of the total, the paper's
// maxLoad quality statistic (Section 7.2). It returns 0 when the total is 0.
func maxShare(values []float64) float64 {
	total, max := 0.0, 0.0
	for _, v := range values {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return 0
	}
	return max / total
}

// MaxShareInts is the maxLoad share of integer counts.
func MaxShareInts(counts []int64) float64 {
	vals := make([]float64, len(counts))
	for i, c := range counts {
		vals[i] = float64(c)
	}
	return maxShare(vals)
}

// Point is one sample of a recorded time series.
type Point struct {
	X float64 // typically processed documents or virtual time
	Y float64
}

// Series records a metric over the run, as used by the "over time" plots
// (Figures 8 and 9). Marks record X positions of events (repartitions).
type Series struct {
	Name   string
	Points []Point
	Marks  []float64
}

// Record appends a sample.
func (s *Series) Record(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Mark appends an event marker (e.g. a repartition) at position x.
func (s *Series) Mark(x float64) { s.Marks = append(s.Marks, x) }

// Len returns the number of recorded samples.
func (s *Series) Len() int { return len(s.Points) }

// MeanY returns the mean of the recorded Y values.
func (s *Series) MeanY() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Y
	}
	return sum / float64(len(s.Points))
}
