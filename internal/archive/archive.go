// Package archive is the durability subsystem of the live service: an
// append-only on-disk log of the pipeline's query state, plus periodic
// checkpoints from which a restarted tagcorrd recovers.
//
// Two kinds of files live in an archive directory:
//
//   - Segment files, one per reporting period (`period-<id>.seg`). The
//     Tracker appends the accepted coefficient reports (fresh values and
//     CN upgrades) of each batch it ingests, and the trend detector every
//     scored deviation as it happens, so the segment of a period converges
//     to exactly the state the in-memory tables held before retention
//     pruned it. Records are individually CRC-framed; decoding stops at the
//     first invalid record, so a tail torn by a crash costs at most the
//     unflushed suffix. Reopening a segment for append first truncates such a torn
//     tail, keeping the file decodable end to end.
//
//   - Checkpoint files (`checkpoint-<seq>.ckpt`): a CRC-verified snapshot
//     of the restartable state — Tracker periods and evicted-pair LRU,
//     trend predictors and per-period events, installed partitions, the
//     interned tag dictionary, and the source cursor. A checkpoint never
//     contains a partial reporting period: state is cut strictly before
//     ReplayPeriod, and ReplayFrom records the stream index of that
//     period's first document, so recovery restores the cut and replays
//     the suffix. The Tracker's CN-max deduplication makes the replay
//     overlap idempotent.
//
// The Writer is safe for concurrent use (the Tracker and Trend operators
// append from different tasks); the Reader serves the /history endpoints
// with a small LRU of decoded segments and tolerates reading segments
// that are still being appended to.
package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"repro/internal/jaccard"
	"repro/internal/tagset"
	"repro/internal/trend"
)

// Segment record kinds. recCoeff/recTrend appear in per-period segments,
// where the file header pins the period; recCoeffP/recTrendP are their
// compacted-tier counterparts, carrying an explicit period id (uint64 LE)
// ahead of the same payload because a compacted file spans many periods.
const (
	recCoeff  = 1
	recTrend  = 2
	recCoeffP = 3
	recTrendP = 4
)

// segMagic opens every segment file, followed by the period id (8 bytes,
// little endian). ckptMagic opens every checkpoint file. cmpMagic opens
// every compacted segment file, followed by the inclusive [from, to]
// period range (2×8 bytes, little endian). manMagic is the first line of
// the compacted-tier MANIFEST.
const (
	segMagic  = "TCARSEG1"
	ckptMagic = "TCARCKP1"
	cmpMagic  = "TCARCMP1"
	manMagic  = "TCARMAN1"
)

// maxRecord bounds a single record's payload; anything larger is treated
// as corruption (a tagset carries at most a handful of uint32 tags).
const maxRecord = 1 << 20

// record framing: kind byte, payload length (uint32 LE), payload, CRC32
// (IEEE, over kind+length+payload). The CRC covering the header means a
// corrupted length cannot silently re-frame the stream.

// appendRecord frames payload into buf and returns the grown buffer.
func appendRecord(buf []byte, kind byte, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[start:])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// readRecord decodes one framed record at data[off:]. ok is false when the
// bytes at off do not form a complete, CRC-valid record — the torn-tail
// (or corruption) signal that ends a segment decode.
func readRecord(data []byte, off int) (kind byte, payload []byte, next int, ok bool) {
	if off+5 > len(data) {
		return 0, nil, 0, false
	}
	kind = data[off]
	n := int(binary.LittleEndian.Uint32(data[off+1 : off+5]))
	if n > maxRecord || off+5+n+4 > len(data) {
		return 0, nil, 0, false
	}
	body := data[off : off+5+n]
	crc := binary.LittleEndian.Uint32(data[off+5+n : off+9+n])
	if crc32.ChecksumIEEE(body) != crc {
		return 0, nil, 0, false
	}
	return kind, body[5:], off + 9 + n, true
}

// appendTags encodes a tagset as a uint16 count plus uint32 tag ids.
func appendTags(buf []byte, s tagset.Set) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(s.Len()))
	for _, t := range s {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
	}
	return buf
}

// tagArena hands out the tag slices of one decode from large chunks, so a
// segment costs an allocation per chunk instead of one per record. Every
// slice is cut with cap == len: an append by a caller reallocates instead
// of writing into the next record's tags. The nil arena allocates each
// slice on its own.
type tagArena struct{ free []tagset.Tag }

// arenaChunk is the arena's chunk size in tags (16 KiB): small against a
// segment's tens of thousands of records, so the unused end of the last
// chunk is noise, and large enough that chunks are few.
const arenaChunk = 4096

func (a *tagArena) alloc(n int) []tagset.Tag {
	if a == nil {
		return make([]tagset.Tag, n)
	}
	if n > len(a.free) {
		a.free = make([]tagset.Tag, max(n, arenaChunk))
	}
	tags := a.free[:n:n]
	a.free = a.free[n:]
	return tags
}

// Record payloads are a tagset (appendTags) followed by a fixed-width
// tail: J and CN for a coefficient, predicted, observed, score, rising and
// CN for a trend event.
const (
	coeffTail = 16
	trendTail = 33
)

// payloadShape checks that payload is a tagset followed by exactly tail
// bytes and returns its tag count. It is the one shape check of a record
// payload: the decoders run it, and the compactor copies only payloads
// that pass it, so a compacted file holds exactly what decoding its raw
// segment would keep.
func payloadShape(payload []byte, tail int) (int, error) {
	if len(payload) < 2 {
		return 0, fmt.Errorf("archive: short tagset header")
	}
	n := int(binary.LittleEndian.Uint16(payload))
	if len(payload) != 2+4*n+tail {
		return 0, fmt.Errorf("archive: payload length %d for %d tags", len(payload), n)
	}
	return n, nil
}

// readTags decodes the n tags that payloadShape found at the head of
// payload into a slice from arena, and returns the tail after them.
func readTags(payload []byte, n int, arena *tagArena) (tagset.Set, []byte) {
	payload = payload[2:]
	tags := arena.alloc(n)
	for i := range tags {
		tags[i] = tagset.Tag(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return tagset.FromSorted(tags), payload[4*n:]
}

// encodeCoeff renders one coefficient record payload: tags, J, CN.
func encodeCoeff(buf []byte, c jaccard.Coefficient) []byte {
	buf = appendTags(buf, c.Tags)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.J))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.CN))
	return buf
}

// appendCoeffRecord frames one coefficient as a recCoeff record straight
// into buf: appendRecord(buf, recCoeff, encodeCoeff(nil, c)) without the
// payload's own allocation.
func appendCoeffRecord(buf []byte, c jaccard.Coefficient) []byte {
	start := len(buf)
	buf = append(buf, recCoeff)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(2+4*c.Tags.Len()+coeffTail))
	buf = encodeCoeff(buf, c)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// appendPeriodRecord frames payload behind an 8-byte period prefix, the
// compacted tier's form of a per-period record.
func appendPeriodRecord(buf []byte, kind byte, period int64, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(8+len(payload)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(period))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// decodeCoeffIn parses a coefficient record payload into a coefficient
// whose tags are placed in arena (nil: tags of its own).
func decodeCoeffIn(payload []byte, arena *tagArena) (jaccard.Coefficient, error) {
	n, err := payloadShape(payload, coeffTail)
	if err != nil {
		return jaccard.Coefficient{}, err
	}
	tags, rest := readTags(payload, n, arena)
	return jaccard.Coefficient{
		Tags: tags,
		J:    math.Float64frombits(binary.LittleEndian.Uint64(rest)),
		CN:   int64(binary.LittleEndian.Uint64(rest[8:])),
	}, nil
}

// encodeTrend renders one trend-event record payload: tags, predicted,
// observed, score, rising, CN. The event's period is the segment's.
func encodeTrend(buf []byte, ev trend.Event) []byte {
	buf = appendTags(buf, ev.Tags)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ev.Predicted))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ev.Observed))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ev.Score))
	if ev.Rising {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.CN))
	return buf
}

// decodeTrendIn parses a trend-event record payload into an Event for the
// given period, its tags placed in arena (nil: tags of its own).
func decodeTrendIn(payload []byte, period int64, arena *tagArena) (trend.Event, error) {
	n, err := payloadShape(payload, trendTail)
	if err != nil {
		return trend.Event{}, err
	}
	tags, rest := readTags(payload, n, arena)
	return trend.Event{
		Tags:      tags,
		Period:    period,
		Predicted: math.Float64frombits(binary.LittleEndian.Uint64(rest)),
		Observed:  math.Float64frombits(binary.LittleEndian.Uint64(rest[8:])),
		Score:     math.Float64frombits(binary.LittleEndian.Uint64(rest[16:])),
		Rising:    rest[24] == 1,
		CN:        int64(binary.LittleEndian.Uint64(rest[25:])),
	}, nil
}

// segmentName returns the file name of a period's segment.
func segmentName(period int64) string { return fmt.Sprintf("period-%d.seg", period) }

// compactName returns the file name of a compacted segment covering the
// inclusive period range [from, to].
func compactName(from, to int64) string { return fmt.Sprintf("compact-%d-%d.seg", from, to) }

// manifestName is the compacted tier's index file. It is the sole
// authority for which compacted files exist and which periods each one
// contains; it is only ever replaced whole via temp+rename.
const manifestName = "MANIFEST"

// syncDir fsyncs the directory dir, which makes the renames done in it
// durable: a rename that publishes a file is a change to its directory,
// and until that is on disk a power failure can undo it. Every temp+rename
// publish calls it before anything the new file supersedes is deleted.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("archive: sync %s: %w", dir, err)
	}
	return nil
}
