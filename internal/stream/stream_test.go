package stream

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tagset"
)

func TestClockSpacing(t *testing.T) {
	c := NewClock(1000) // 1ms apart
	if c.Next() != 0 || c.Next() != 1 || c.Next() != 2 {
		t.Fatal("1000 tps should space documents 1ms apart")
	}
	if c.Now() != 2 {
		t.Errorf("Now = %d, want 2", c.Now())
	}
}

func TestClockRate1300(t *testing.T) {
	c := NewClock(1300)
	var last Millis
	for i := 0; i < 1300; i++ {
		last = c.Next()
	}
	// Document 1299 arrives just before the 1-second mark.
	if last >= 1000 {
		t.Errorf("1300th doc at %dms, want < 1000", last)
	}
	next := c.Next()
	if next != 1000 {
		t.Errorf("1301st doc at %dms, want 1000", next)
	}
}

func TestClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

func doc(id uint64, tm Millis, tags ...tagset.Tag) Document {
	return Document{ID: id, Time: tm, Tags: tagset.New(tags...)}
}

func TestSlidingWindowEviction(t *testing.T) {
	w := NewSlidingWindow(100)
	w.Add(doc(1, 0, 1, 2))
	w.Add(doc(2, 50, 1, 2))
	w.Add(doc(3, 99, 3))
	if w.Len() != 3 || w.DistinctTagsets() != 2 {
		t.Fatalf("Len=%d Distinct=%d, want 3 2", w.Len(), w.DistinctTagsets())
	}
	// t=120 evicts doc at t=0 (cutoff 20).
	w.Add(doc(4, 120, 3))
	if w.Len() != 3 {
		t.Fatalf("Len after eviction = %d, want 3", w.Len())
	}
	snap := w.Snapshot()
	counts := map[string]int64{}
	for _, ws := range snap {
		counts[ws.Tags.String()] = ws.Count
	}
	if counts["{1,2}"] != 1 || counts["{3}"] != 2 {
		t.Errorf("snapshot = %v", counts)
	}
}

func TestSlidingWindowCompaction(t *testing.T) {
	w := NewSlidingWindow(10)
	for i := 0; i < 10000; i++ {
		w.Add(doc(uint64(i), Millis(i*5), tagset.Tag(i%7)))
	}
	if w.Len() > 3 {
		t.Errorf("Len = %d, want <= 3", w.Len())
	}
	if len(w.docs) > 4096 {
		t.Errorf("backing slice grew to %d; compaction failed", len(w.docs))
	}
}

func TestCountWindow(t *testing.T) {
	w := NewCountWindow(3)
	for i := 0; i < 5; i++ {
		w.Add(doc(uint64(i), Millis(i), tagset.Tag(i)))
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	snap := w.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot size = %d", len(snap))
	}
	seen := map[string]bool{}
	for _, ws := range snap {
		seen[ws.Tags.String()] = true
	}
	for _, want := range []string{"{2}", "{3}", "{4}"} {
		if !seen[want] {
			t.Errorf("missing %s in %v", want, seen)
		}
	}
}

func TestTumblingWindow(t *testing.T) {
	w := NewTumblingWindow(100)
	if got := w.Add(doc(1, 10, 1)); got != nil {
		t.Fatal("first add returned a batch")
	}
	if got := w.Add(doc(2, 50, 2)); got != nil {
		t.Fatal("in-span add returned a batch")
	}
	batch := w.Add(doc(3, 120, 3))
	if len(batch) != 2 || batch[0].ID != 1 || batch[1].ID != 2 {
		t.Fatalf("batch = %v", batch)
	}
	rest := w.Flush()
	if len(rest) != 1 || rest[0].ID != 3 {
		t.Fatalf("flush = %v", rest)
	}
	// After Flush the window restarts cleanly.
	if got := w.Add(doc(4, 5000, 1)); got != nil {
		t.Fatal("add after flush returned a batch")
	}
}

func TestTumblingWindowSkipsEmptySpans(t *testing.T) {
	w := NewTumblingWindow(100)
	w.Add(doc(1, 0, 1))
	batch := w.Add(doc(2, 950, 2))
	if len(batch) != 1 {
		t.Fatalf("batch = %v", batch)
	}
	// Next boundary should be at 1000, not 100.
	if got := w.Add(doc(3, 990, 3)); got != nil {
		t.Fatal("doc at 990 should be in the same span as 950")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	dict := tagset.NewDictionary()
	docs := []Document{
		{ID: 1, Time: 0, Tags: dict.InternSet([]string{"beer", "munich"})},
		{ID: 2, Time: 5, Tags: dict.InternSet([]string{"sunny"})},
		{ID: 3, Time: 9, Tags: nil},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, dict, docs); err != nil {
		t.Fatal(err)
	}
	dict2 := tagset.NewDictionary()
	var got []Document
	err := ReadJSONL(&buf, dict2, func(d Document) error {
		got = append(got, d)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d docs", len(got))
	}
	if got[0].ID != 1 || got[0].Time != 0 || got[0].Tags.Len() != 2 {
		t.Errorf("doc 0 = %+v", got[0])
	}
	names := dict2.Strings(got[0].Tags)
	if len(names) != 2 {
		t.Errorf("tags = %v", names)
	}
}

func TestReadJSONLBadInput(t *testing.T) {
	dict := tagset.NewDictionary()
	err := ReadJSONL(bytes.NewBufferString("not json\n"), dict, func(Document) error { return nil })
	if err == nil {
		t.Error("expected error for malformed line")
	}
}

func TestQuickSlidingWindowCountConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	w := NewSlidingWindow(50)
	var tm Millis
	for i := 0; i < 5000; i++ {
		tm += Millis(r.Intn(5))
		w.Add(doc(uint64(i), tm, tagset.Tag(r.Intn(10))))
		total := int64(0)
		for _, ws := range w.Snapshot() {
			if ws.Count <= 0 {
				t.Fatal("non-positive count in snapshot")
			}
			total += ws.Count
		}
		if total != int64(w.Len()) {
			t.Fatalf("snapshot total %d != Len %d", total, w.Len())
		}
	}
}

// TestJSONLSourceLazy pins the lazy replay path: documents come out one
// Next call at a time and match the eager reader, a clean end reports no
// error, and a malformed line ends the stream with the line number in the
// error instead of panicking or skipping.
func TestJSONLSourceLazy(t *testing.T) {
	dict := tagset.NewDictionary()
	docs := []Document{
		{ID: 1, Time: 10, Tags: dict.InternSet([]string{"a", "b"})},
		{ID: 2, Time: 20, Tags: dict.InternSet([]string{"b", "c"})},
		{ID: 3, Time: 30, Tags: dict.InternSet([]string{"a"})},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, dict, docs); err != nil {
		t.Fatal(err)
	}

	src := NewJSONLSource(bytes.NewReader(buf.Bytes()), dict)
	for i, want := range docs {
		got, ok := src.Next()
		if !ok {
			t.Fatalf("source ended at doc %d", i)
		}
		if got.ID != want.ID || got.Time != want.Time || !got.Tags.Equal(want.Tags) {
			t.Errorf("doc %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok := src.Next(); ok {
		t.Error("source yielded a document past the end")
	}
	if err := src.Err(); err != nil {
		t.Errorf("clean end reports %v", err)
	}
	if src.line != len(docs) {
		t.Errorf("lines consumed = %d, want %d", src.line, len(docs))
	}
	// Next after end stays terminal.
	if _, ok := src.Next(); ok {
		t.Error("source restarted after end")
	}

	bad := buf.String() + "not json\n"
	src = NewJSONLSource(strings.NewReader(bad), dict)
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if n != len(docs) {
		t.Errorf("parsed %d docs before the bad line, want %d", n, len(docs))
	}
	if err := src.Err(); err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("bad line error = %v, want line 4", err)
	}
}
