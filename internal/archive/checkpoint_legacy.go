package archive

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"

	"repro/internal/jaccard"
	"repro/internal/operators"
)

// The checkpoint versions before v3, still read so that a daemon upgraded
// mid-life restarts from its last checkpoint. Nothing writes them. Their
// frame is that of v3, but the CRC field covers the whole payload.
//
//   - A version-2 payload has two parts: the Tracker periods — their count
//     (uint32 LE), then per period its id (int64 LE), its coefficient count
//     (uint32 LE) and each coefficient as a segment record payload
//     (encodeCoeff) — and then, to the end of the payload, the gob encoding
//     of the Checkpoint with Tracker.Periods nil.
//   - A version-1 payload is the gob part alone, with the periods inside it.
const (
	ckptV1 = 1
	ckptV2 = 2

	// ckptPeriodLen and minCoeffLen are the smallest v2 encodings of a
	// period header and of a coefficient (no tags), which bound the counts
	// a decode accepts by the bytes left.
	ckptPeriodLen = 12
	minCoeffLen   = 2 + coeffTail
)

// decodeLegacy decodes a version-1 or version-2 payload whose frame
// decodeCheckpoint has checked, crc being the frame's CRC field.
func decodeLegacy(v uint32, payload []byte, crc uint32) (*Checkpoint, error) {
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("payload CRC mismatch")
	}
	var periods []operators.PeriodCoefficients
	if v == ckptV2 {
		var err error
		if periods, payload, err = decodePeriods(payload); err != nil {
			return nil, fmt.Errorf("decode periods: %w", err)
		}
	}
	var cp Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if v == ckptV2 {
		cp.Tracker.Periods = periods
	}
	// Both writers wrote periods in ascending order, as v3 requires.
	ascending := func(n int, period func(int) int64) bool {
		for i := 1; i < n; i++ {
			if period(i) <= period(i-1) {
				return false
			}
		}
		return true
	}
	if !ascending(len(cp.Tracker.Periods), func(i int) int64 { return cp.Tracker.Periods[i].Period }) ||
		cp.Trend != nil && !ascending(len(cp.Trend.Periods), func(i int) int64 { return cp.Trend.Periods[i].Period }) {
		return nil, fmt.Errorf("periods out of order")
	}
	return &cp, nil
}

// decodePeriods parses the Tracker periods part of a version-2 payload and
// returns the bytes after it, the gob part. Each count is checked against
// the bytes left before anything is allocated for it, and the tags of all
// coefficients share one arena. Empty slices decode as nil, as gob decodes
// them.
func decodePeriods(b []byte) ([]operators.PeriodCoefficients, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("short period count")
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(n) > uint64(len(b)/ckptPeriodLen) {
		return nil, nil, fmt.Errorf("%d periods in %d bytes", n, len(b))
	}
	var periods []operators.PeriodCoefficients
	if n > 0 {
		periods = make([]operators.PeriodCoefficients, n)
	}
	var arena tagArena
	for i := range periods {
		if len(b) < ckptPeriodLen {
			return nil, nil, fmt.Errorf("short period header")
		}
		pc := &periods[i]
		pc.Period = int64(binary.LittleEndian.Uint64(b))
		m := binary.LittleEndian.Uint32(b[8:])
		b = b[ckptPeriodLen:]
		if uint64(m) > uint64(len(b)/minCoeffLen) {
			return nil, nil, fmt.Errorf("period %d: %d coefficients in %d bytes", pc.Period, m, len(b))
		}
		if m > 0 {
			pc.Coeffs = make([]jaccard.Coefficient, m)
		}
		for j := range pc.Coeffs {
			if len(b) < minCoeffLen {
				return nil, nil, fmt.Errorf("period %d: short coefficient", pc.Period)
			}
			size := minCoeffLen + 4*int(binary.LittleEndian.Uint16(b))
			if len(b) < size {
				return nil, nil, fmt.Errorf("period %d: short coefficient", pc.Period)
			}
			c, err := decodeCoeffIn(b[:size], &arena)
			if err != nil {
				return nil, nil, err
			}
			if len(c.Tags) == 0 {
				c.Tags = nil
			}
			pc.Coeffs[j] = c
			b = b[size:]
		}
	}
	return periods, b, nil
}
