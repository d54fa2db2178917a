//go:build race

package archive

// In a -race build slices.Grow allocates the room it adds twice: the race
// instrumentation keeps the compiler from folding the append of a new
// zeroed slice into one allocation.
func init() { growAllocs = 2 }
