package archive

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/jaccard"
	"repro/internal/telemetry"
	"repro/internal/trend"
)

// maxOpenSegments bounds the Writer's open file handles; colder segments
// are flushed and closed, and reopened transparently on the next append.
const maxOpenSegments = 8

// Writer appends pipeline state to an archive directory: one segment per
// reporting period plus checkpoint files. It implements the archive-sink
// interfaces of the Tracker (AppendCoefficients, SealPeriod) and the trend
// detector (AppendEvent, SealPeriod) and is safe for concurrent use.
//
// Two mutexes, taken in this order: ckptMu serialises checkpoint writes
// (build, encode, write, fsync, rename, retention) and is held by nothing
// else but Close; mu guards the open segments and the sequence number, and is
// held only for short appends and flushes, so a checkpoint being written
// never stalls an append.
type Writer struct {
	dir string

	ckptMu   sync.Mutex
	sections SectionCache // the checkpoint encoder; guarded by ckptMu

	mu     sync.Mutex
	open   map[int64]*segFile
	order  []int64 // open segments, least recently used first
	seq    uint64  // last checkpoint sequence number used or found
	buf    []byte  // scratch for record framing
	closed bool

	// fsyncHist, when set (SetFsyncHist, before the first checkpoint),
	// records the durable-sync latency of every checkpoint file.
	fsyncHist *telemetry.Histogram

	// beforeCkptSync, when set by a test, runs between a checkpoint's
	// encode and its write, with ckptMu held and mu not.
	beforeCkptSync func()
}

// SetFsyncHist wires a histogram recording each checkpoint file's fsync
// latency. Call before the first WriteCheckpoint.
func (w *Writer) SetFsyncHist(h *telemetry.Histogram) {
	w.mu.Lock()
	w.fsyncHist = h
	w.mu.Unlock()
}

type segFile struct {
	f   *os.File
	bw  *bufio.Writer
	err error // first write error; the segment is dropped, not retried
}

// flush pushes buffered records to the OS and, when sync is set, to disk.
func (s *segFile) flush(sync bool) {
	if s.err != nil {
		return
	}
	if err := s.bw.Flush(); err != nil {
		s.err = err
		return
	}
	if sync {
		s.err = s.f.Sync()
	}
}

// OpenWriter opens (creating if needed) an archive directory for append.
// Existing checkpoint files are scanned so new checkpoints continue the
// sequence; existing segments are reopened lazily, truncating any torn
// tail a previous crash left behind.
func OpenWriter(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	w := &Writer{dir: dir, open: make(map[int64]*segFile)}
	seqs, err := checkpointSeqs(dir)
	if err != nil {
		return nil, err
	}
	if len(seqs) > 0 {
		w.seq = seqs[len(seqs)-1]
	}
	return w, nil
}

// AppendCoefficients appends a batch of accepted coefficient reports to
// the period's segment, in order: one lock, one segment lookup, and every
// record framed into the Writer's reused buffer, which is written once.
// The bytes are those of one AppendCoefficient per report. Write errors
// disable the affected segment silently (the archive is best-effort on a
// failing disk); checkpoints, which gate recovery, do report errors.
func (w *Writer) AppendCoefficients(period int64, cs []jaccard.Coefficient) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = w.buf[:0]
	for _, c := range cs {
		w.buf = appendCoeffRecord(w.buf, c)
	}
	w.appendLocked(period, w.buf)
}

// AppendCoefficient appends one coefficient report: AppendCoefficients
// with a batch of one.
func (w *Writer) AppendCoefficient(period int64, c jaccard.Coefficient) {
	w.AppendCoefficients(period, []jaccard.Coefficient{c})
}

// AppendEvent appends one scored trend deviation to its period's segment.
func (w *Writer) AppendEvent(ev trend.Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = appendRecord(w.buf[:0], recTrend, encodeTrend(nil, ev))
	w.appendLocked(ev.Period, w.buf)
}

// SealPeriod marks a period complete in memory: its segment is flushed to
// disk and its file handle released. Appends after a seal (the Tracker and
// the trend detector prune the same period at different times) transparently
// reopen the segment, so sealing is an idempotent flush point, not a lock.
func (w *Writer) SealPeriod(period int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closeLocked(period)
}

// Flush pushes every open segment to disk.
func (w *Writer) Flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.open {
		s.flush(true)
	}
}

// Close flushes and closes every open segment, after any checkpoint being
// written. The Writer must not be used afterwards; WriteCheckpoint reports
// an error if it is.
func (w *Writer) Close() {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	for p := range w.open {
		w.closeLocked(p)
	}
	w.closed = true
}

// appendLocked writes one framed record to the period's segment.
func (w *Writer) appendLocked(period int64, rec []byte) {
	if w.closed {
		return
	}
	s := w.segmentLocked(period)
	if s == nil || s.err != nil {
		return
	}
	if _, err := s.bw.Write(rec); err != nil {
		s.err = err
	}
}

// segmentLocked returns the open segment for period, opening (and
// truncating a torn tail) if needed and evicting the coldest handle when
// over the open-file bound.
func (w *Writer) segmentLocked(period int64) *segFile {
	if s, ok := w.open[period]; ok {
		w.touchLocked(period)
		return s
	}
	s := openSegmentFile(filepath.Join(w.dir, segmentName(period)), period)
	w.open[period] = s
	w.order = append(w.order, period)
	if len(w.order) > maxOpenSegments {
		w.closeLocked(w.order[0])
	}
	return s
}

// touchLocked moves period to the most recently used end of order, in
// place.
func (w *Writer) touchLocked(period int64) {
	for i, p := range w.order {
		if p == period {
			copy(w.order[i:], w.order[i+1:])
			w.order[len(w.order)-1] = period
			return
		}
	}
}

func (w *Writer) closeLocked(period int64) {
	s, ok := w.open[period]
	if !ok {
		return
	}
	s.flush(false)
	s.f.Close()
	delete(w.open, period)
	for i, p := range w.order {
		if p == period {
			w.order = append(w.order[:i], w.order[i+1:]...)
			break
		}
	}
}

// openSegmentFile opens a segment for append. A fresh file gets the magic
// + period header; an existing file is scanned and truncated to its last
// valid record, so a tail torn by a crash cannot wedge later appends
// behind undecodable bytes.
func openSegmentFile(path string, period int64) *segFile {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return &segFile{err: err}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return &segFile{err: err}
	}
	valid := validSegmentPrefix(data, period)
	if valid == 0 {
		// Empty, foreign or header-torn file: restart it.
		hdr := append([]byte(segMagic), make([]byte, 8)...)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(period))
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt(hdr, 0)
		}
		if err != nil {
			f.Close()
			return &segFile{err: err}
		}
		valid = int64(len(hdr))
	} else if valid < int64(len(data)) {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return &segFile{err: err}
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return &segFile{err: err}
	}
	return &segFile{f: f, bw: bufio.NewWriterSize(f, 64*1024)}
}

// validSegmentPrefix returns the length of the longest decodable prefix of
// a segment file's bytes (0 when even the header is wrong).
func validSegmentPrefix(data []byte, period int64) int64 {
	if len(data) < 16 || string(data[:8]) != segMagic ||
		int64(binary.LittleEndian.Uint64(data[8:16])) != period {
		return 0
	}
	off := 16
	for {
		_, _, next, ok := readRecord(data, off)
		if !ok {
			return int64(off)
		}
		off = next
	}
}
