//go:build race

package operators

import (
	"math"

	"repro/internal/tagset"
)

// In -race builds every report buffer returned to its Calculator's free
// list is overwritten before a later flush reuses it, so the concurrent and
// differential tests run over poisoned reuse: a reader that kept a report
// past its release reads J NaN, CN −1 and every tag the largest id, and its
// answers differ.
func init() { poisonReport = poison }

// poison overwrites every coefficient and tag of buf.
func poison(buf *reportBuf) {
	for i := range buf.coeffs {
		buf.coeffs[i].J, buf.coeffs[i].CN = math.NaN(), -1
	}
	for i := range buf.arena {
		buf.arena[i] = tagset.Tag(math.MaxUint32)
	}
}
