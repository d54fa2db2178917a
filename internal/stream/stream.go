// Package stream defines the document stream model: timestamped, tag-
// annotated documents (tweets), the virtual clock that paces them at a
// configured arrival rate (tweets per second), and the sliding / tumbling
// windows the Partitioners and experiments consume (Sections 1.1 and 6.2).
//
// Time is virtual: documents carry millisecond timestamps advanced
// deterministically at the configured tps, which reproduces exactly the
// quantities the paper measures (how many documents fall into a 5-minute
// window, when Calculators report, when quality statistics fire) while
// keeping every run repeatable.
package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/tagset"
)

// Millis is a virtual timestamp in milliseconds since stream start.
type Millis int64

// Seconds converts a duration in seconds to Millis.
func Seconds(s float64) Millis { return Millis(s * 1000) }

// Minutes converts a duration in minutes to Millis.
func Minutes(m float64) Millis { return Millis(m * 60 * 1000) }

// Document is one tagged message of the stream.
type Document struct {
	ID   uint64
	Time Millis
	Tags tagset.Set
}

// Clock produces virtual arrival timestamps at a fixed rate of tps
// documents per second.
type Clock struct {
	periodNum   int64 // milliseconds numerator: 1000
	tps         int64
	count       int64
	startOffset Millis
}

// NewClock returns a clock starting at time 0 that spaces documents at
// 1000/tps milliseconds. It panics if tps <= 0.
func NewClock(tps int) *Clock {
	if tps <= 0 {
		panic(fmt.Sprintf("stream: tps = %d", tps))
	}
	return &Clock{periodNum: 1000, tps: int64(tps)}
}

// Next returns the arrival time of the next document.
func (c *Clock) Next() Millis {
	t := c.startOffset + Millis(c.count*c.periodNum/c.tps)
	c.count++
	return t
}

// Now returns the time of the most recently issued document (0 if none).
func (c *Clock) Now() Millis {
	if c.count == 0 {
		return c.startOffset
	}
	return c.startOffset + Millis((c.count-1)*c.periodNum/c.tps)
}

// WeightedSet is a distinct tagset together with the number of window
// documents annotated with exactly that tagset. It is the unit the
// partitioning algorithms consume.
type WeightedSet struct {
	Tags  tagset.Set
	Count int64
}

// SlidingWindow is a time-based sliding window over documents that
// aggregates occurrence counts per distinct tagset. Adding a document with
// timestamp t evicts everything older than t - span.
type SlidingWindow struct {
	span   Millis
	docs   []Document // FIFO; docs[head:] are live
	head   int
	counts map[tagset.Key]int64
}

// NewSlidingWindow returns a window covering the trailing span of time.
// It panics if span <= 0.
func NewSlidingWindow(span Millis) *SlidingWindow {
	if span <= 0 {
		panic(fmt.Sprintf("stream: window span = %d", span))
	}
	return &SlidingWindow{span: span, counts: make(map[tagset.Key]int64)}
}

// Add inserts doc and evicts documents older than doc.Time - span.
// Documents must be added in non-decreasing time order.
func (w *SlidingWindow) Add(doc Document) {
	w.docs = append(w.docs, doc)
	w.counts[doc.Tags.Key()]++
	w.EvictBefore(doc.Time - w.span)
}

// EvictBefore removes all documents with Time < cutoff.
func (w *SlidingWindow) EvictBefore(cutoff Millis) {
	for w.head < len(w.docs) && w.docs[w.head].Time < cutoff {
		k := w.docs[w.head].Tags.Key()
		if w.counts[k]--; w.counts[k] == 0 {
			delete(w.counts, k)
		}
		w.head++
	}
	// Compact occasionally so the backing slice does not grow without bound.
	if w.head > 1024 && w.head*2 > len(w.docs) {
		n := copy(w.docs, w.docs[w.head:])
		w.docs = w.docs[:n]
		w.head = 0
	}
}

// Len reports the number of live documents.
func (w *SlidingWindow) Len() int { return len(w.docs) - w.head }

// DistinctTagsets reports the number of distinct live tagsets.
func (w *SlidingWindow) DistinctTagsets() int { return len(w.counts) }

// Snapshot returns the distinct live tagsets with their counts, in
// unspecified order (partition.NewInput imposes a canonical one). The
// returned slice is fresh; the sets alias the stored canonical keys'
// decodings.
func (w *SlidingWindow) Snapshot() []WeightedSet {
	out := make([]WeightedSet, 0, len(w.counts))
	for k, c := range w.counts {
		out = append(out, WeightedSet{Tags: k.Set(), Count: c})
	}
	return out
}

// CountWindow is a count-based sliding window keeping the last capacity
// documents, aggregated per distinct tagset.
type CountWindow struct {
	cap    int
	docs   []Document
	head   int
	counts map[tagset.Key]int64
}

// NewCountWindow returns a window over the trailing capacity documents.
// It panics if capacity <= 0.
func NewCountWindow(capacity int) *CountWindow {
	if capacity <= 0 {
		panic(fmt.Sprintf("stream: window capacity = %d", capacity))
	}
	return &CountWindow{cap: capacity, counts: make(map[tagset.Key]int64)}
}

// Add inserts doc, evicting the oldest document when full.
func (w *CountWindow) Add(doc Document) {
	w.docs = append(w.docs, doc)
	w.counts[doc.Tags.Key()]++
	if len(w.docs)-w.head > w.cap {
		k := w.docs[w.head].Tags.Key()
		if w.counts[k]--; w.counts[k] == 0 {
			delete(w.counts, k)
		}
		w.head++
	}
	if w.head > 1024 && w.head*2 > len(w.docs) {
		n := copy(w.docs, w.docs[w.head:])
		w.docs = w.docs[:n]
		w.head = 0
	}
}

// Len reports the number of live documents.
func (w *CountWindow) Len() int { return len(w.docs) - w.head }

// Snapshot returns the distinct live tagsets with their counts, in
// unspecified order (partition.NewInput imposes a canonical one).
func (w *CountWindow) Snapshot() []WeightedSet {
	out := make([]WeightedSet, 0, len(w.counts))
	for k, c := range w.counts {
		out = append(out, WeightedSet{Tags: k.Set(), Count: c})
	}
	return out
}

// TumblingWindow partitions the stream into consecutive, non-overlapping
// spans (as used by the connectivity study, Section 8.2.6). Add returns the
// completed batch whenever doc crosses a span boundary, and nil otherwise.
type TumblingWindow struct {
	span  Millis
	until Millis
	batch []Document
	init  bool
}

// NewTumblingWindow returns a tumbling window of the given span.
// It panics if span <= 0.
func NewTumblingWindow(span Millis) *TumblingWindow {
	if span <= 0 {
		panic(fmt.Sprintf("stream: window span = %d", span))
	}
	return &TumblingWindow{span: span}
}

// Add inserts doc. If doc falls outside the current span, the accumulated
// batch is returned (ownership transfers to the caller) and a new span
// containing doc begins.
func (w *TumblingWindow) Add(doc Document) []Document {
	if !w.init {
		w.init = true
		w.until = doc.Time + w.span
	}
	if doc.Time >= w.until {
		done := w.batch
		w.batch = []Document{doc}
		for doc.Time >= w.until {
			w.until += w.span
		}
		return done
	}
	w.batch = append(w.batch, doc)
	return nil
}

// Flush returns the in-progress batch and resets the window.
func (w *TumblingWindow) Flush() []Document {
	done := w.batch
	w.batch = nil
	w.init = false
	return done
}

// jsonDoc is the JSONL wire format of a document.
type jsonDoc struct {
	ID   uint64   `json:"id"`
	Time int64    `json:"time_ms"`
	Tags []string `json:"tags"`
}

// WriteJSONL writes documents as one JSON object per line, resolving tag ids
// through dict.
func WriteJSONL(w io.Writer, dict *tagset.Dictionary, docs []Document) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range docs {
		jd := jsonDoc{ID: d.ID, Time: int64(d.Time), Tags: dict.Strings(d.Tags)}
		if err := enc.Encode(&jd); err != nil {
			return fmt.Errorf("stream: encode doc %d: %w", d.ID, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL streams documents from r, interning tags into dict and calling
// fn for each document. It stops early if fn returns a non-nil error.
func ReadJSONL(r io.Reader, dict *tagset.Dictionary, fn func(Document) error) error {
	src := NewJSONLSource(r, dict)
	for {
		doc, ok := src.Next()
		if !ok {
			return src.Err()
		}
		if err := fn(doc); err != nil {
			return err
		}
	}
}

// JSONLSource decodes a JSONL capture one line at a time: each Next call
// reads and parses exactly one document, so replaying a capture of any
// length holds O(1) of it in memory (the scanner's line buffer). This is
// the replay path of tagcorrd -in; ReadJSONL is the same machinery behind
// a callback.
//
// Next returns false at end of input and after the first malformed line;
// Err distinguishes the two. A JSONLSource is not safe for concurrent use.
type JSONLSource struct {
	sc   *bufio.Scanner
	dict *tagset.Dictionary
	line int
	err  error
	done bool
}

// NewJSONLSource returns a source reading from r, interning tags into dict.
func NewJSONLSource(r io.Reader, dict *tagset.Dictionary) *JSONLSource {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &JSONLSource{sc: sc, dict: dict}
}

// Next returns the next document, or false when the input is exhausted or
// a line failed to parse (check Err).
func (s *JSONLSource) Next() (Document, bool) {
	if s.done {
		return Document{}, false
	}
	if !s.sc.Scan() {
		s.done = true
		s.err = s.sc.Err()
		return Document{}, false
	}
	s.line++
	var jd jsonDoc
	if err := json.Unmarshal(s.sc.Bytes(), &jd); err != nil {
		s.done = true
		s.err = fmt.Errorf("stream: line %d: %w", s.line, err)
		return Document{}, false
	}
	return Document{ID: jd.ID, Time: Millis(jd.Time), Tags: s.dict.InternSet(jd.Tags)}, true
}

// Err returns the first scan or parse error (nil at clean end of input).
func (s *JSONLSource) Err() error { return s.err }
