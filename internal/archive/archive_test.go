package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/tagset"
	"repro/internal/trend"
)

// decodeCoeff parses a coefficient record payload into a coefficient that
// owns its tags.
func decodeCoeff(payload []byte) (jaccard.Coefficient, error) {
	return decodeCoeffIn(payload, nil)
}

// decodeTrend parses a trend-event record payload into an Event for the
// given period that owns its tags.
func decodeTrend(payload []byte, period int64) (trend.Event, error) {
	return decodeTrendIn(payload, period, nil)
}

// encodeCheckpoint renders cp as a version-3 checkpoint file from scratch,
// in one buffer of its own.
func encodeCheckpoint(cp *Checkpoint) []byte {
	var c SectionCache
	return bytes.Join(c.encode(cp), nil)
}

func coeff(a, b tagset.Tag, j float64, cn int64) jaccard.Coefficient {
	return jaccard.Coefficient{Tags: tagset.New(a, b), J: j, CN: cn}
}

func event(a, b tagset.Tag, period int64, score float64) trend.Event {
	return trend.Event{
		Tags: tagset.New(a, b), Period: period,
		Predicted: 0.2, Observed: 0.2 + score, Score: score, Rising: true, CN: 7,
	}
}

// TestSegmentRoundTrip writes coefficient and trend records (including a
// CN upgrade that must win on decode) and reads them back.
func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendCoefficient(3, coeff(1, 2, 0.5, 4))
	w.AppendCoefficient(3, coeff(3, 4, 0.8, 2))
	w.AppendCoefficient(3, coeff(1, 2, 0.5, 9)) // upgrade: decode must keep CN 9
	w.AppendEvent(event(1, 2, 3, 0.3))
	w.AppendCoefficient(4, coeff(1, 2, 0.6, 5)) // other period, other segment
	w.SealPeriod(3)
	w.Close()

	rd := OpenReader(dir)
	periods, err := rd.Periods()
	if err != nil || !reflect.DeepEqual(periods, []int64{3, 4}) {
		t.Fatalf("periods = %v (%v)", periods, err)
	}
	seg, err := rd.Segment(3)
	if err != nil || seg == nil {
		t.Fatalf("segment 3: %v", err)
	}
	if seg.Torn {
		t.Error("clean segment reported torn")
	}
	if len(seg.Coeffs) != 2 || seg.Coeffs[0].J != 0.8 {
		t.Fatalf("coeffs = %+v", seg.Coeffs)
	}
	if c, ok := seg.Coefficient(tagset.New(1, 2).Key()); !ok || c.CN != 9 {
		t.Errorf("upgrade lost: %+v ok=%v", c, ok)
	}
	if len(seg.Trends) != 1 || seg.Trends[0].Score != 0.3 {
		t.Errorf("trends = %+v", seg.Trends)
	}

	// Newest-first pair lookup across periods. An unbounded scan never
	// reports truncation.
	c, period, ok, truncated, err := rd.LookupPair(tagset.New(1, 2).Key(), 0)
	if err != nil || !ok || period != 4 || c.CN != 5 || truncated {
		t.Errorf("LookupPair = %+v period=%d ok=%v truncated=%v err=%v", c, period, ok, truncated, err)
	}
	// A scan bounded to the newest period must miss the pair reported
	// only further back — and flag that older periods went unscanned.
	if _, _, ok, truncated, err := rd.LookupPair(tagset.New(3, 4).Key(), 1); ok || !truncated || err != nil {
		t.Errorf("bounded LookupPair ok=%v truncated=%v err=%v, want miss with truncated", ok, truncated, err)
	}
	if c, period, ok, _, err := rd.LookupPair(tagset.New(3, 4).Key(), 2); !ok || period != 3 || c.J != 0.8 || err != nil {
		t.Errorf("bounded LookupPair = %+v period=%d ok=%v err=%v", c, period, ok, err)
	}
}

// TestSegmentTornTail truncates a segment mid-record and corrupts another:
// decoding must return the valid prefix with Torn set, and reopening for
// append must truncate the tail so later records stay decodable.
func TestSegmentTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		w.AppendCoefficient(5, coeff(tagset.Tag(2*i), tagset.Tag(2*i+1), 0.1*float64(i+1), int64(i+1)))
	}
	w.Close()

	path := filepath.Join(dir, segmentName(5))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the last record.
	torn := data[:len(data)-5]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	rd := OpenReader(dir)
	seg, err := rd.Segment(5)
	if err != nil || seg == nil {
		t.Fatal(err)
	}
	if !seg.Torn || len(seg.Coeffs) != 7 {
		t.Fatalf("torn decode: torn=%v coeffs=%d (want 7)", seg.Torn, len(seg.Coeffs))
	}

	// Reopen for append: the torn tail must be truncated, the new record
	// decodable, and the previously valid prefix intact.
	w2, err := OpenWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2.AppendCoefficient(5, coeff(100, 101, 0.9, 3))
	w2.Close()
	seg, err = OpenReader(dir).Segment(5)
	if err != nil || seg == nil {
		t.Fatal(err)
	}
	if seg.Torn || len(seg.Coeffs) != 8 {
		t.Fatalf("after reopen: torn=%v coeffs=%d (want 8 clean)", seg.Torn, len(seg.Coeffs))
	}
	if _, ok := seg.Coefficient(tagset.New(100, 101).Key()); !ok {
		t.Error("post-reopen record missing")
	}
}

func testCheckpoint(seq int) *Checkpoint {
	return &Checkpoint{
		DocsFed:      int64(1000 * seq),
		ReplayFrom:   int64(900 * seq),
		ReplayPeriod: int64(seq),
		Dict:         []string{"a", "b", "c"},
		Epoch:        1,
	}
}

// TestCheckpointFallback writes two checkpoints, corrupts the newest, and
// verifies LoadCheckpoint falls back to the older valid one; with both
// corrupted it must error rather than silently start fresh.
func TestCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCheckpoint(testCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCheckpoint(testCheckpoint(2)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	cp, err := LoadCheckpoint(dir)
	if err != nil || cp == nil || cp.Seq != 2 || cp.ReplayPeriod != 2 {
		t.Fatalf("newest checkpoint: %+v err=%v", cp, err)
	}

	// Corrupt the newest: CRC must reject it, fallback to seq 1.
	newest := filepath.Join(dir, checkpointName(2))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err = LoadCheckpoint(dir)
	if err != nil || cp == nil || cp.Seq != 1 {
		t.Fatalf("fallback checkpoint: %+v err=%v", cp, err)
	}

	// Tear the older one too (truncated payload): now nothing validates.
	older := filepath.Join(dir, checkpointName(1))
	data, err = os.ReadFile(older)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(older, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err = LoadCheckpoint(dir); err == nil {
		t.Fatal("all-corrupt directory loaded without error")
	}

	// An empty directory is a clean fresh start, not an error.
	cp, err = LoadCheckpoint(t.TempDir())
	if err != nil || cp != nil {
		t.Fatalf("empty dir: cp=%v err=%v", cp, err)
	}
}

// TestCheckpointRetention verifies only the two newest checkpoints are
// kept and the sequence continues across Writer reopens.
func TestCheckpointRetention(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := w.WriteCheckpoint(testCheckpoint(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	seqs, err := checkpointSeqs(dir)
	if err != nil || !reflect.DeepEqual(seqs, []uint64{3, 4}) {
		t.Fatalf("retained seqs = %v (%v)", seqs, err)
	}

	w2, err := OpenWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteCheckpoint(testCheckpoint(5)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	cp, err := LoadCheckpoint(dir)
	if err != nil || cp.Seq != 5 {
		t.Fatalf("sequence did not continue across reopen: %+v err=%v", cp, err)
	}
}

// TestReaderLiveInvalidation verifies the decoded-segment LRU re-decodes
// a segment when its file grows (a live period being appended to).
func TestReaderLiveInvalidation(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendCoefficient(7, coeff(1, 2, 0.5, 1))
	w.Flush()

	rd := OpenReader(dir)
	seg, err := rd.Segment(7)
	if err != nil || len(seg.Coeffs) != 1 {
		t.Fatalf("first read: %+v err=%v", seg, err)
	}
	w.AppendCoefficient(7, coeff(3, 4, 0.9, 2))
	w.Flush()
	seg, err = rd.Segment(7)
	if err != nil || len(seg.Coeffs) != 2 {
		t.Fatalf("grown segment not re-decoded: %+v err=%v", seg, err)
	}
	w.Close()

	// Unknown period: (nil, nil).
	if seg, err := rd.Segment(99); err != nil || seg != nil {
		t.Fatalf("missing segment: %v %v", seg, err)
	}
}
