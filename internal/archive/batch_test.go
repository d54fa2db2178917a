package archive

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/tagset"
	"repro/internal/trend"
)

// segmentHeader returns the magic + period header of a fresh segment.
func segmentHeader(period int64) []byte {
	return binary.LittleEndian.AppendUint64([]byte(segMagic), uint64(period))
}

// referenceRecords frames coefficients one by one with the generic framing
// and the allocating payload encoder.
func referenceRecords(cs []jaccard.Coefficient) []byte {
	var out []byte
	for _, c := range cs {
		out = appendRecord(out, recCoeff, encodeCoeff(nil, c))
	}
	return out
}

// TestAppendCoefficientsByteIdentical writes the same reports through
// AppendCoefficients (by the batch) and AppendCoefficient (one by one), with
// a SealPeriod and its reopen between batches and a torn tail truncated by
// the next writer, and requires both segment files to equal, byte for byte,
// the records framed one by one with encodeCoeff.
func TestAppendCoefficientsByteIdentical(t *testing.T) {
	const period = 9
	batches := [][]jaccard.Coefficient{
		{coeff(1, 2, 0.5, 4), coeff(3, 4, 0.8, 2), coeff(1, 2, 0.5, 9)}, // with a CN upgrade
		{{Tags: tagset.New(5, 6, 7), J: 0.25, CN: 3}},
		{{Tags: tagset.New(8), J: 1, CN: 1}, coeff(9, 10, 0.125, 12)},
	}
	write := func(w *Writer, batch []jaccard.Coefficient, byBatch bool) {
		if byBatch {
			w.AppendCoefficients(period, batch)
			return
		}
		for _, c := range batch {
			w.AppendCoefficient(period, c)
		}
	}
	segment := func(byBatch bool) []byte {
		dir := t.TempDir()
		w, err := OpenWriter(dir)
		if err != nil {
			t.Fatal(err)
		}
		write(w, batches[0], byBatch)
		w.SealPeriod(period) // flushed and closed; the next append reopens
		write(w, batches[1], byBatch)
		w.Close()

		// A crash tore the last record: the next writer truncates it.
		path := filepath.Join(dir, segmentName(period))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		w, err = OpenWriter(dir)
		if err != nil {
			t.Fatal(err)
		}
		write(w, batches[2], byBatch)
		w.Close()
		data, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	want := segmentHeader(period)
	want = append(want, referenceRecords(batches[0])...)
	want = append(want, referenceRecords(batches[2])...) // batches[1] was torn away
	for _, byBatch := range []bool{true, false} {
		if got := segment(byBatch); !bytes.Equal(got, want) {
			t.Errorf("byBatch=%v: segment differs from the records framed one by one\n got %x\nwant %x", byBatch, got, want)
		}
	}
}

// TestAppendCoefficientsAllocations: a warm batch append frames into the
// Writer's reused buffer and finds its open segment without allocating. The
// collector is off while it counts: a cycle allocates on its own account.
func TestAppendCoefficientsAllocations(t *testing.T) {
	w, err := OpenWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	batch := make([]jaccard.Coefficient, 200)
	for i := range batch {
		batch[i] = coeff(tagset.Tag(i), tagset.Tag(i+1000), 0.5, int64(i))
	}
	for p := int64(1); p <= 3; p++ { // several open segments, the LRU in use
		w.AppendCoefficients(p, batch)
	}
	w.AppendCoefficients(1, batch)
	next := int64(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(50, func() {
		w.AppendCoefficients(1+next%3, batch)
		next++
	}); avg != 0 {
		t.Errorf("a warm AppendCoefficients allocates %.1f times, want 0", avg)
	}
}

// TestCheckpointDoesNotStallAppends holds a checkpoint between its encode
// and its write and requires an append from another goroutine to complete
// meanwhile: the Writer's append mutex is free while a checkpoint file is
// written and synced.
func TestCheckpointDoesNotStallAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendCoefficients(1, []jaccard.Coefficient{coeff(1, 2, 0.5, 1)})
	late := coeff(3, 4, 0.75, 2)
	w.beforeCkptSync = func() {
		if !w.mu.TryLock() {
			t.Error("the append mutex is held between a checkpoint's encode and its write")
			return
		}
		w.mu.Unlock()
		done := make(chan struct{})
		go func() {
			w.AppendCoefficients(1, []jaccard.Coefficient{late})
			close(done)
		}()
		<-done
	}
	if err := w.WriteCheckpoint(testCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	seg, err := OpenReader(dir).Segment(1)
	if err != nil || seg == nil {
		t.Fatalf("segment 1: %v", err)
	}
	if c, ok := seg.Coefficient(late.Tags.Key()); !ok || !reflect.DeepEqual(c, late) {
		t.Errorf("append made during the checkpoint: got %+v ok=%v", c, ok)
	}
	if cp, err := LoadCheckpoint(dir); err != nil || cp == nil || cp.Seq != 1 {
		t.Errorf("checkpoint: %+v, %v", cp, err)
	}
}

// rawRecord frames an arbitrary payload under kind with a valid CRC.
func rawRecord(kind byte, payload []byte) []byte { return appendRecord(nil, kind, payload) }

// FuzzCompactBatch compacts arbitrary bytes as the raw segment of one
// period, beside a well-formed neighbour, and requires every period's
// decoded compacted segment to be DeepEqual to decodeSegment of its raw
// bytes with Torn cleared: compaction by copy keeps exactly the records a
// decode keeps, in order, so the last record still wins per tagset.
func FuzzCompactBatch(f *testing.F) {
	real := realSegment(f)
	pair := tagset.New(1, 2)
	wrongLength := encodeCoeff(nil, coeff(5, 6, 0.5, 1))
	wrongLength = wrongLength[:len(wrongLength)-1]
	var mixed []byte
	mixed = append(mixed, real...)
	// A CRC-valid payload of the wrong length.
	mixed = append(mixed, rawRecord(recCoeff, wrongLength)...)
	// A coefficient's payload under the trend kind.
	mixed = append(mixed, rawRecord(recTrend, encodeCoeff(nil, coeff(7, 8, 0.5, 1)))...)
	// An unknown kind, and a compacted kind, which a raw segment never holds.
	mixed = append(mixed, rawRecord(9, []byte{1, 2, 3})...)
	mixed = append(mixed, rawRecord(recCoeffP, make([]byte, 8))...)
	// A later CN upgrade of a pair the real segment holds.
	upgrade := jaccard.Coefficient{Tags: pair, J: 0.5, CN: 11}
	mixed = append(mixed, rawRecord(recCoeff, encodeCoeff(nil, upgrade))...)
	f.Add(mixed)
	f.Add(mixed[:len(mixed)-3]) // torn tail
	f.Add(real)
	f.Add(segmentHeader(fuzzPeriod))
	f.Add([]byte{})
	f.Add(append(segmentHeader(fuzzPeriod+5), real[16:]...)) // another period's header

	neighbour := append(segmentHeader(fuzzPeriod+1), referenceRecords([]jaccard.Coefficient{
		coeff(1, 2, 0.25, 1), coeff(3, 4, 0.5, 2), coeff(1, 2, 0.75, 3),
	})...)
	neighbour = append(neighbour, trendRecord(trend.Event{Tags: pair, Period: fuzzPeriod + 1, Score: 1.5, CN: 3})...)

	f.Fuzz(func(t *testing.T, data []byte) {
		raw := map[int64][]byte{fuzzPeriod: data, fuzzPeriod + 1: neighbour}
		dir := t.TempDir()
		for p, b := range raw {
			if err := os.WriteFile(filepath.Join(dir, segmentName(p)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c := NewCompactor(dir, CompactorConfig{FanIn: 2})
		if err := c.RunOnce(); err != nil {
			t.Fatalf("compaction: %v", err)
		}
		if st := c.Stats(); st.CompactedPeriods != 2 {
			t.Fatalf("compacted %d periods, want 2", st.CompactedPeriods)
		}
		rd := OpenReader(dir)
		for p, b := range raw {
			if _, err := os.Stat(filepath.Join(dir, segmentName(p))); !os.IsNotExist(err) {
				t.Fatalf("raw segment of period %d still present (%v)", p, err)
			}
			got, err := rd.Segment(p)
			if err != nil || got == nil {
				t.Fatalf("compacted period %d: %v", p, err)
			}
			want := decodeSegment(b, p)
			want.Torn = false
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("period %d: compacted segment differs from the raw decode\n got %+v\nwant %+v", p, got, want)
			}
		}
	})
}
