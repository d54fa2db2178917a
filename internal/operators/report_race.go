//go:build race

package operators

import (
	"math"

	"repro/internal/tagset"
)

// In -race builds every report buffer returned to its Calculator's free
// list is overwritten before a later flush reuses it, so the concurrent and
// differential tests run over poisoned reuse: a reader that kept a report
// past its release reads J NaN, CN −1, every tag the largest id and every
// route hash its coefficient's position in the report, which sends one
// tagset to different shards and tasks from report to report, and its
// answers differ.
func init() { poisonReport = poison }

// poison overwrites every coefficient, tag and route hash of buf.
func poison(buf *reportBuf) {
	for i := range buf.coeffs {
		buf.coeffs[i].J, buf.coeffs[i].CN = math.NaN(), -1
	}
	for i := range buf.arena {
		buf.arena[i] = tagset.Tag(math.MaxUint32)
	}
	for i := range buf.hashes {
		buf.hashes[i] = uint64(i)
	}
}
