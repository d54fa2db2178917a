//go:build race

package jaccard

// In a -race build slices.Grow of a short slice allocates twice: the race
// instrumentation keeps the compiler from folding the append of a new
// zeroed slice into one allocation. Coefficients grows its array and its
// arena that way, so it counts four.
func init() { coefficientsAllocs = 4 }
