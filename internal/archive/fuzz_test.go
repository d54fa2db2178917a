package archive

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/tagset"
	"repro/internal/trend"
)

const fuzzPeriod int64 = 7

// realSegment builds a segment through the production Writer — the corpus
// anchor that keeps the fuzzer exploring mutations of genuine framing
// rather than only random bytes.
func realSegment(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	w, err := OpenWriter(dir)
	if err != nil {
		tb.Fatal(err)
	}
	pair := tagset.FromSorted([]tagset.Tag{1, 2})
	w.AppendCoefficient(fuzzPeriod, jaccard.Coefficient{Tags: pair, J: 0.5, CN: 3})
	w.AppendCoefficient(fuzzPeriod, jaccard.Coefficient{Tags: pair, J: 0.5, CN: 9}) // CN upgrade
	w.AppendCoefficient(fuzzPeriod, jaccard.Coefficient{
		Tags: tagset.FromSorted([]tagset.Tag{3, 4, 5}), J: 0.25, CN: 2,
	})
	w.AppendEvent(trend.Event{
		Tags: pair, Period: fuzzPeriod, Predicted: 0.2, Observed: 0.6, Score: 2.5, Rising: true, CN: 9,
	})
	w.Close()
	data, err := os.ReadFile(filepath.Join(dir, segmentName(fuzzPeriod)))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzSegmentRecord throws arbitrary bytes at the segment decoder — the
// code that reads files a crashed process left behind, so it must accept
// anything. Checked invariants:
//
//   - decoding never panics and never errors (corruption is data, not
//     failure);
//   - a clean decode (Torn == false) means the framing walk consumed the
//     whole file, and a short framing walk always reports Torn;
//   - every record the framing walk accepts round-trips: re-encoding
//     kind+payload reproduces the input bytes exactly;
//   - reopening the bytes for append (the crash-recovery path) truncates
//     to a framing-valid prefix that still starts with the header.
func FuzzSegmentRecord(f *testing.F) {
	real := realSegment(f)
	f.Add(real)
	f.Add(real[:len(real)-3])             // torn tail: mid-record truncation
	f.Add(real[:17])                      // torn tail: header plus one stray byte
	f.Add([]byte{})                       // empty file
	f.Add([]byte(segMagic))               // header-only torn file
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // foreign garbage

	// Valid header, then a record claiming a huge payload length: the CRC
	// over the header is what stops a corrupted length from re-framing the
	// stream.
	hdr := append([]byte(segMagic), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(fuzzPeriod))
	huge := append(append([]byte{}, hdr...), recCoeff)
	huge = binary.LittleEndian.AppendUint32(huge, 1<<30)
	f.Add(append(huge, 0xde, 0xad, 0xbe, 0xef))

	f.Fuzz(func(t *testing.T, data []byte) {
		seg := decodeSegment(data, fuzzPeriod) // must not panic
		if seg == nil {
			t.Fatal("decodeSegment returned nil")
		}

		valid := validSegmentPrefix(data, fuzzPeriod)
		if valid > int64(len(data)) {
			t.Fatalf("valid prefix %d exceeds input length %d", valid, len(data))
		}
		if !seg.Torn && len(data) > 0 && valid != int64(len(data)) {
			t.Fatalf("decode reported clean but framing stops at %d of %d bytes", valid, len(data))
		}
		if valid < int64(len(data)) && len(data) >= 16 &&
			string(data[:8]) == segMagic &&
			int64(binary.LittleEndian.Uint64(data[8:16])) == fuzzPeriod &&
			!seg.Torn {
			t.Fatalf("torn tail at %d of %d bytes not reported", valid, len(data))
		}

		// Walk the frames the decoder accepted; each must round-trip.
		if valid >= 16 {
			off := 16
			for int64(off) < valid {
				kind, payload, next, ok := readRecord(data, off)
				if !ok {
					t.Fatalf("record at %d inside valid prefix %d does not decode", off, valid)
				}
				if rt := appendRecord(nil, kind, payload); !bytes.Equal(rt, data[off:next]) {
					t.Fatalf("record at %d does not round-trip: %x vs %x", off, rt, data[off:next])
				}
				off = next
			}
			if int64(off) != valid {
				t.Fatalf("framing walk ended at %d, validSegmentPrefix said %d", off, valid)
			}
		}

		// Crash-recovery path: reopening for append must leave a file whose
		// bytes are framing-valid end to end and headed correctly.
		path := filepath.Join(t.TempDir(), segmentName(fuzzPeriod))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openSegmentFile(path, fuzzPeriod)
		if s.err != nil {
			t.Fatalf("openSegmentFile: %v", s.err)
		}
		s.f.Close()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) < 16 {
			t.Fatalf("reopened segment is %d bytes, want >= 16 (header)", len(after))
		}
		if got := validSegmentPrefix(after, fuzzPeriod); got != int64(len(after)) {
			t.Fatalf("reopened segment still torn: valid prefix %d of %d bytes", got, len(after))
		}
	})
}

// FuzzReadCheckpoint throws arbitrary bytes at the checkpoint decoder:
// checkpoint files come from disk, so it must accept anything. With
// reframe set, the input's length and CRC fields are rewritten first
// (reframeCheckpoint), so mutations of a payload get past the frame and
// section checks and reach the section and period decoders. Checked
// invariants:
//
//   - decoding never panics;
//   - a file whose frame names any version but 3 fails with "version N",
//     as the seeds made from a version-3 file relabelled 1 and 2 do;
//   - every count is bounded by the bytes left, so a corrupt count cannot
//     make the decode allocate more than a small multiple of the input;
//   - an input that validates re-writes to a version-3 file that loads
//     back to the same checkpoint.
func FuzzReadCheckpoint(f *testing.F) {
	v3 := encodeCheckpoint(richCheckpoint())
	for _, v := range []uint32{1, 2} {
		old := slices.Clone(v3)
		binary.LittleEndian.PutUint32(old[8:], v)
		f.Add(old, false)
		f.Add(old, true)
	}
	huge := slices.Clone(v3) // a section count far beyond the payload
	binary.LittleEndian.PutUint32(huge[ckptHeaderLen:], 1<<31)
	f.Add(huge, true)
	f.Add(v3, false)
	f.Add(v3, true)
	for _, bad := range corruptCheckpoints(v3) {
		f.Add(bad.data, false)
		f.Add(bad.data, true)
	}
	f.Add([]byte{}, false)

	f.Fuzz(func(t *testing.T, data []byte, reframe bool) {
		if reframe {
			data = reframeCheckpoint(data)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cp, err := decodeCheckpoint(data) // must not panic
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if len(data) >= ckptHeaderLen && string(data[:8]) == ckptMagic {
			if v := binary.LittleEndian.Uint32(data[8:]); v != ckptVersion {
				if want := fmt.Sprintf("version %d", v); err == nil || err.Error() != want {
					t.Fatalf("a version-%d file: error %v, want %q", v, err, want)
				}
			}
		}
		if err != nil {
			return
		}
		again := slices.Clone(encodeCheckpoint(cp))
		back, err := decodeCheckpoint(again)
		if err != nil {
			t.Fatalf("re-written checkpoint does not load: %v", err)
		}
		if reflect.DeepEqual(back, cp) {
			return
		}
		// DeepEqual is false for a NaN. The re-written bytes decide then:
		// loading and re-writing them must reproduce them exactly.
		if again2 := encodeCheckpoint(back); !bytes.Equal(again2, again) {
			t.Fatalf("re-written checkpoint loads to a different one:\n got %+v\nwant %+v", back, cp)
		}
	})
}

// reframeCheckpoint returns a copy of data with its length field
// rewritten and its CRCs recomputed: every section CRC whose row lies
// inside the file and then the table CRC. A file of another version is
// rejected before its CRCs are read, so only its length is rewritten.
func reframeCheckpoint(data []byte) []byte {
	if len(data) < ckptHeaderLen {
		return data
	}
	data = slices.Clone(data)
	le := binary.LittleEndian
	le.PutUint64(data[12:], uint64(len(data)-ckptHeaderLen))
	if le.Uint32(data[8:]) != ckptVersion || len(data) < ckptHeaderLen+4 {
		return data
	}
	n := uint64(le.Uint32(data[ckptHeaderLen:]))
	if n > uint64((len(data)-ckptHeaderLen-4)/ckptRowLen) {
		return data
	}
	tableEnd := ckptHeaderLen + 4 + int(n)*ckptRowLen
	for i := range int(n) {
		row := data[ckptHeaderLen+4+i*ckptRowLen:]
		if off, size := le.Uint64(row[10:]), le.Uint64(row[18:]); off <= uint64(len(data)) && size <= uint64(len(data))-off {
			le.PutUint32(row[26:], crc32.ChecksumIEEE(data[off:off+size]))
		}
	}
	le.PutUint32(data[20:], crc32.ChecksumIEEE(data[ckptHeaderLen:tableEnd]))
	return data
}

// corruptCheckpoint is one way a version-3 file can be damaged.
type corruptCheckpoint struct {
	name string
	data []byte
}

// corruptCheckpoints derives damaged copies of a valid version-3 file v3:
// torn at every section boundary and one byte short of the end, a section
// whose bytes no longer match its CRC, and — with the table CRC
// recomputed, so that only the section check can object — a section whose
// offset or size runs past the end, one with an unknown id, a repeated
// section and a repeated period.
func corruptCheckpoints(v3 []byte) []corruptCheckpoint {
	le := binary.LittleEndian
	n := int(le.Uint32(v3[ckptHeaderLen:]))
	tableEnd := ckptHeaderLen + 4 + n*ckptRowLen
	row := func(data []byte, i int) []byte { return data[ckptHeaderLen+4+i*ckptRowLen:] }
	var out []corruptCheckpoint
	for i := range n {
		if off := le.Uint64(row(v3, i)[10:]); off < uint64(len(v3)) {
			out = append(out, corruptCheckpoint{fmt.Sprintf("torn before section %d", i), v3[:off]})
		}
	}
	out = append(out, corruptCheckpoint{"torn tail", v3[:len(v3)-1]})
	flipped := slices.Clone(v3)
	flipped[tableEnd] ^= 0xff // the first byte of the first section
	out = append(out, corruptCheckpoint{"bad section CRC", flipped})
	edit := func(name string, fn func(data []byte)) {
		data := slices.Clone(v3)
		fn(data)
		le.PutUint32(data[20:], crc32.ChecksumIEEE(data[ckptHeaderLen:tableEnd]))
		out = append(out, corruptCheckpoint{name, data})
	}
	edit("offset past the end", func(data []byte) { le.PutUint64(row(data, n-1)[10:], uint64(len(data)+1)) })
	edit("size past the end", func(data []byte) { le.PutUint64(row(data, n-1)[18:], 1<<40) })
	edit("unknown section id", func(data []byte) { le.PutUint16(row(data, n-1), 99) })
	edit("repeated section", func(data []byte) { le.PutUint16(row(data, 1), secCursor) })
	for i := 1; i < n; i++ {
		if id := le.Uint16(row(v3, i)); id == secPeriod && le.Uint16(row(v3, i-1)) == secPeriod {
			edit("repeated period", func(data []byte) { copy(row(data, i)[2:10], row(data, i-1)[2:10]) })
			break
		}
	}
	return out
}

// TestDecodeSegmentTornTail pins the torn-tail contract on the real
// segment at every truncation point — the deterministic counterpart of the
// fuzz target, run on every `go test`.
func TestDecodeSegmentTornTail(t *testing.T) {
	data := realSegment(t)
	full := decodeSegment(data, fuzzPeriod)
	if full.Torn {
		t.Fatal("writer-produced segment decodes as torn")
	}
	if len(full.Coeffs) != 2 { // CN upgrade dedupes the first pair
		t.Fatalf("coeffs = %d, want 2", len(full.Coeffs))
	}
	if len(full.Trends) != 1 {
		t.Fatalf("trends = %d, want 1", len(full.Trends))
	}
	if c, ok := full.Coefficient(tagset.FromSorted([]tagset.Tag{1, 2}).Key()); !ok || c.CN != 9 {
		t.Fatalf("pair {1,2} = %+v ok=%v, want CN 9 (last record wins)", c, ok)
	}
	for cut := len(data) - 1; cut > 16; cut-- {
		seg := decodeSegment(data[:cut], fuzzPeriod)
		if valid := validSegmentPrefix(data[:cut], fuzzPeriod); valid < int64(cut) && !seg.Torn {
			t.Fatalf("truncation at %d (valid %d) not reported torn", cut, valid)
		}
		if len(seg.Coeffs) > len(full.Coeffs) || len(seg.Trends) > len(full.Trends) {
			t.Fatalf("truncation at %d decoded more than the full segment", cut)
		}
	}
}
