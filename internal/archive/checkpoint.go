package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/jaccard"
	"repro/internal/operators"
	"repro/internal/partition"
	"repro/internal/tagset"
	"repro/internal/trend"
)

// Checkpoint is the restartable state of one pipeline, written periodically
// (and on shutdown) by the Writer and loaded by LoadCheckpoint on the next
// start. The invariant every checkpoint upholds: no partial periods. State
// is cut strictly before ReplayPeriod; ReplayFrom is the stream index of
// that period's first document, so a restarted service skips ReplayFrom
// documents of its (deterministic or replayable) source and feeds the rest
// — the replay rebuilds the cut period and everything after it, and the
// Tracker's CN-max dedup absorbs any overlap with already-imported state.
type Checkpoint struct {
	// Seq is the checkpoint's sequence number, monotonically increasing.
	// A version-3 file carries it in its name only (checkpoint-<seq>.ckpt),
	// so its bytes are a function of the state alone.
	Seq uint64

	// DocsFed counts documents the source had produced when the checkpoint
	// was cut; ReplayFrom is where the restarted source must resume (always
	// <= DocsFed); ReplayPeriod is the first period the replay rebuilds
	// (0 when no period had been flushed yet).
	DocsFed      int64
	ReplayFrom   int64
	ReplayPeriod int64

	// Dict is every interned tag string in identifier order: re-interning
	// them into a fresh dictionary reproduces the Tag ids that the segment
	// files and the states below reference.
	Dict []string

	// Epoch, Merges, Quality refs and Partitions restore the partitioning
	// layer: the Merger's current result and the Disseminator's inverted
	// index plus monitoring baseline.
	Epoch      int
	Merges     int
	RefAvgCom  float64
	RefMaxLoad float64
	HasRef     bool
	Partitions []partition.Partition

	Tracker operators.TrackerState
	Trend   *trend.StreamState // nil when the pipeline ran without Config.Trend
}

// Checkpoint file layout, version 3 (ckptVersion, the one written). The
// frame is magic (8 bytes), version (uint32 LE), payload length (uint64
// LE) and the CRC32 of the section table (uint32 LE). The payload is the
// section table — its row count (uint32 LE), then one 30-byte row per
// section: id (uint16), period (int64), offset in the file (uint64), size
// (uint64), CRC32 of the section (uint32), all LE — and then the sections,
// back to back in row order, tiling the rest of the file. The table's CRC
// covers every section's CRC, so the frame still vouches for every byte,
// while a write computes CRCs only over the sections it encodes afresh.
// A file that fails any check — torn tail included — is skipped and the
// previous checkpoint is used instead.
//
// The sections, in file order (ids ascending; a period section's period
// ascending within its id; a section without a period has period 0):
//
//	secCursor      DocsFed, ReplayFrom, ReplayPeriod i64
//	secDict        per tag string: length (uvarint), bytes
//	secPartitions  Epoch, Merges i64, RefAvgCom, RefMaxLoad f64, HasRef u8,
//	               then per partition: tags*, Load (varint)
//	secTracker     Floor, Pruned, EvictedHits, Received, Duplicates, Late
//	               i64, then per evicted pair, least recent first: tags*,
//	               J f64, CN, period (varint)
//	secPeriod      one per Tracker period: its coefficients (encodeCoeff)
//	secTrend       Floor, Pruned, Latest, Scored, Filtered, OutOfOrder,
//	               Late, Published, Dropped i64, then per predictor: tags*,
//	               Expectation f64, Seen<<2 | how Base is kept (varint),
//	               Base f64 unless kept otherwise, Period (varint)
//	secEvents      one per trend-event period: its events (encodeTrend)
//
// Coefficients and events are segment record payloads, as the Tracker and
// the detector append them to segments. The records segments have no kind
// for carry their tags* as varints (appendVarintTags). secTrend and
// secEvents are present exactly when the checkpoint has trend state.
// Only version 3 is read: a file of an earlier version fails as any other
// invalid checkpoint does.
const (
	ckptVersion   = 3
	ckptHeaderLen = 24
	ckptRowLen    = 30
)

// Section ids, in file order.
const (
	secCursor uint16 = 1 + iota
	secDict
	secPartitions
	secTracker
	secPeriod
	secTrend
	secEvents
)

// WriteCheckpoint writes cp as the next checkpoint: WriteCheckpointFrom
// with a build that returns cp, so every period section is encoded afresh.
func (w *Writer) WriteCheckpoint(cp *Checkpoint) error {
	return w.WriteCheckpointFrom(func(*SectionCache) *Checkpoint { return cp })
}

// WriteCheckpointFrom builds the next checkpoint with build, flushes the
// open segments, and writes the checkpoint file (write-to-temp, fsync,
// rename, directory fsync, so a crash mid-write can never produce a file
// that passes validation), then removes all but the two newest
// checkpoints. build runs under ckptMu, before the flush, so every report
// its exports hold is on disk with the checkpoint; it may ask the
// Writer's section cache which periods it can leave out (SectionCache).
// The Writer's append mutex is held only for the flush and the sequence
// number; the build, encode, write, fsync, rename and retention run under
// ckptMu alone, which keeps concurrent checkpoints in sequence order while
// appends go on.
func (w *Writer) WriteCheckpointFrom(build func(*SectionCache) *Checkpoint) error {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	w.mu.Lock()
	closed := w.closed // Close waits for ckptMu, so this cannot change below
	w.mu.Unlock()
	if closed {
		return fmt.Errorf("archive: writer closed")
	}
	cp := build(&w.sections)
	w.mu.Lock()
	for _, s := range w.open {
		s.flush(true)
	}
	w.seq++
	seq, fsyncHist := w.seq, w.fsyncHist
	w.mu.Unlock()

	cp.Seq = seq
	parts := w.sections.encode(cp)
	if w.beforeCkptSync != nil {
		w.beforeCkptSync()
	}

	final := filepath.Join(w.dir, checkpointName(seq))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	for _, part := range parts {
		if _, err = f.Write(part); err != nil {
			break
		}
	}
	if err == nil {
		start := time.Now()
		err = f.Sync()
		if fsyncHist != nil {
			fsyncHist.Record(time.Since(start))
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("archive: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("archive: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}

	// Retain the two newest checkpoints: the one just written plus one
	// fallback in case its tail is torn by a later crash-mid-write of the
	// filesystem itself.
	if seqs, err := checkpointSeqs(w.dir); err == nil {
		for _, s := range seqs {
			if s+2 <= seq {
				os.Remove(filepath.Join(w.dir, checkpointName(s)))
			}
		}
	}
	return nil
}

// SectionCache is a Writer's checkpoint encoder, kept from one checkpoint
// to the next under ckptMu: every section of the last checkpoint with its
// bytes and CRC, and the output buffer of the frame and section table.
//
// The reuse rule: a Tracker or trend-event period's section is written
// from cache exactly when the build was told so (TrackerPeriod,
// TrendPeriod), which it is when the period's write count — the sum over
// shards of its tables' topselect.Table.Writes — equals the one its
// cached section was encoded at. A build that hears yes leaves the
// period's data out. Every other section is encoded afresh, and a period
// section is then cached under the count its build read before gathering
// it. The dictionary section encodes only the strings appended since the
// last checkpoint, and its CRC continues from the cached one.
type SectionCache struct {
	sections map[sectionKey]*section
	order    []*section // the sections of the checkpoint being encoded, in file order
	dict     []string   // the strings the dictionary section holds
	out      []byte     // the frame and section table
	parts    [][]byte   // out, then the sections' bytes
}

type sectionKey struct {
	id     uint16
	period int64
}

type section struct {
	key    sectionKey
	data   []byte
	crc    uint32
	writes uint64 // the write count data was encoded at, when cached
	cached bool   // writes is set: data may be reused

	// Set for the checkpoint being encoded: whether the build asked about
	// this section, the count it read, whether it was told to reuse it,
	// and whether the checkpoint holds it.
	asked, reuse, used bool
	next               uint64
}

// TrackerPeriod reports whether the Tracker period's section can be
// written from cache at writes, the sum over shards of the period's table
// write counts read before any gather. Only a build passed to
// WriteCheckpointFrom may call it.
func (c *SectionCache) TrackerPeriod(period int64, writes uint64) bool {
	return c.ask(secPeriod, period, writes)
}

// TrendPeriod is TrackerPeriod for a trend-event period.
func (c *SectionCache) TrendPeriod(period int64, writes uint64) bool {
	return c.ask(secEvents, period, writes)
}

func (c *SectionCache) ask(id uint16, period int64, writes uint64) bool {
	s := c.section(sectionKey{id, period})
	s.asked, s.next = true, writes
	s.reuse = s.cached && s.writes == writes
	return s.reuse
}

// section returns the cached section of k, adding an empty one.
func (c *SectionCache) section(k sectionKey) *section {
	if s := c.sections[k]; s != nil {
		return s
	}
	if c.sections == nil {
		c.sections = make(map[sectionKey]*section)
	}
	s := &section{key: k}
	c.sections[k] = s
	return s
}

// put adds k's section to the checkpoint being encoded: from cache when
// the build was told to reuse it, otherwise encoded afresh by enc into the
// section's buffer, reserved for size bytes (0 when not known).
func (c *SectionCache) put(id uint16, period int64, size int, enc func([]byte) []byte) {
	s := c.section(sectionKey{id, period})
	s.used = true
	c.order = append(c.order, s)
	if s.reuse {
		return
	}
	s.data = enc(reserve(s.data, size))
	s.crc = crc32.ChecksumIEEE(s.data)
	s.writes, s.cached = s.next, s.asked
}

// putDict adds the dictionary section, encoding only the strings appended
// since the cached section when dict extends the strings it holds.
func (c *SectionCache) putDict(dict []string) {
	s := c.section(sectionKey{secDict, 0})
	s.used = true
	c.order = append(c.order, s)
	n := len(c.dict)
	if !s.cached || len(dict) < n || !slices.Equal(dict[:n], c.dict) {
		n, s.data, s.crc = 0, s.data[:0], 0
	}
	size := 0
	for _, str := range dict[n:] {
		size += uvarintLen(uint64(len(str))) + len(str)
	}
	b := slices.Grow(s.data, size)
	for _, str := range dict[n:] {
		b = binary.AppendUvarint(b, uint64(len(str)))
		b = append(b, str...)
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, b[len(s.data):])
	s.data, s.cached, c.dict = b, true, dict
}

// encode renders cp as a version-3 checkpoint file and returns it in
// parts, to be written in order: the frame and section table, in the
// cache's reused output buffer, then each section's bytes, which the cache
// owns. The parts stay valid until the next encode. It then drops the
// sections cp does not hold.
func (c *SectionCache) encode(cp *Checkpoint) [][]byte {
	c.order = c.order[:0]
	c.put(secCursor, 0, 0, func(b []byte) []byte {
		return appendInt64s(b, cp.DocsFed, cp.ReplayFrom, cp.ReplayPeriod)
	})
	c.putDict(cp.Dict)
	c.put(secPartitions, 0, 0, func(b []byte) []byte {
		b = appendInt64s(b, int64(cp.Epoch), int64(cp.Merges))
		b = appendFloat64s(b, cp.RefAvgCom, cp.RefMaxLoad)
		b = appendBool(b, cp.HasRef)
		for _, pt := range cp.Partitions {
			b = appendVarintTags(b, pt.Tags)
			b = binary.AppendVarint(b, pt.Load)
		}
		return b
	})
	tr := &cp.Tracker
	c.put(secTracker, 0, 0, func(b []byte) []byte {
		b = appendInt64s(b, tr.Floor, tr.Pruned, tr.EvictedHits, tr.Received, tr.Duplicates, tr.Late)
		for _, e := range tr.Evicted {
			b = appendVarintTags(b, e.Coeff.Tags)
			b = appendFloat64s(b, e.Coeff.J)
			b = binary.AppendVarint(b, e.Coeff.CN)
			b = binary.AppendVarint(b, e.Period)
		}
		return b
	})
	for _, pc := range tr.Periods {
		size := 0
		for _, co := range pc.Coeffs {
			size += 2 + 4*len(co.Tags) + coeffTail
		}
		c.put(secPeriod, pc.Period, size, func(b []byte) []byte {
			for _, co := range pc.Coeffs {
				b = encodeCoeff(b, co)
			}
			return b
		})
	}
	if st := cp.Trend; st != nil {
		c.put(secTrend, 0, 0, func(b []byte) []byte {
			b = appendInt64s(b, st.Floor, st.Pruned, st.Latest, st.Scored, st.Filtered,
				st.OutOfOrder, st.Late, st.Published, st.Dropped)
			for _, p := range st.Predictors {
				b = appendVarintTags(b, p.Tags)
				b = appendFloat64s(b, p.Expectation)
				base := predictorBase(p)
				b = binary.AppendVarint(b, int64(p.Seen)<<2|base)
				if base == baseWritten {
					b = appendFloat64s(b, p.Base)
				}
				b = binary.AppendVarint(b, p.Period)
			}
			return b
		})
		for _, pe := range st.Periods {
			size := 0
			for _, ev := range pe.Events {
				size += 2 + 4*len(ev.Tags) + trendTail
			}
			c.put(secEvents, pe.Period, size, func(b []byte) []byte {
				for _, ev := range pe.Events {
					b = encodeTrend(b, ev)
				}
				return b
			})
		}
	}
	for k, s := range c.sections {
		if !s.used {
			delete(c.sections, k)
		}
		s.asked, s.reuse, s.used = false, false, false
	}
	return c.frame()
}

// frame lays out the frame and the section table of c.order in the output
// buffer and returns the file's parts.
func (c *SectionCache) frame() [][]byte {
	tableEnd := ckptHeaderLen + 4 + len(c.order)*ckptRowLen
	out := reserve(c.out, tableEnd)[:tableEnd]
	binary.LittleEndian.PutUint32(out[ckptHeaderLen:], uint32(len(c.order)))
	off := tableEnd
	for i, s := range c.order {
		row := out[ckptHeaderLen+4+i*ckptRowLen:]
		binary.LittleEndian.PutUint16(row, s.key.id)
		binary.LittleEndian.PutUint64(row[2:], uint64(s.key.period))
		binary.LittleEndian.PutUint64(row[10:], uint64(off))
		binary.LittleEndian.PutUint64(row[18:], uint64(len(s.data)))
		binary.LittleEndian.PutUint32(row[26:], s.crc)
		off += len(s.data)
	}
	copy(out, ckptMagic)
	binary.LittleEndian.PutUint32(out[8:], ckptVersion)
	binary.LittleEndian.PutUint64(out[12:], uint64(off-ckptHeaderLen))
	binary.LittleEndian.PutUint32(out[20:], crc32.ChecksumIEEE(out[ckptHeaderLen:]))
	c.out = out
	parts := append(c.parts[:0], out)
	for _, s := range c.order {
		parts = append(parts, s.data)
	}
	c.parts = parts
	return parts
}

// reserve returns b emptied, with room for size bytes; a buffer that has
// to grow gets a quarter more, so that one growing from checkpoint to
// checkpoint is not reallocated at each.
func reserve(b []byte, size int) []byte {
	if cap(b) < size {
		return make([]byte, 0, size+size/4)
	}
	return b[:0]
}

// A predictor's base is written only when it is neither its expectation
// (a predictor exported rolled back to before the cut) nor zero (one seen
// once, which has no base yet): its seen count, shifted left two bits,
// carries which.
const (
	baseWritten = iota
	baseExpectation
	baseZero
)

func predictorBase(p trend.TrendPredictor) int64 {
	switch math.Float64bits(p.Base) {
	case math.Float64bits(p.Expectation):
		return baseExpectation
	case 0:
		return baseZero
	}
	return baseWritten
}

// appendVarintTags encodes a tagset as a uvarint count and one uvarint per
// tag: the form of the records that segments have no kind for (evicted
// pairs, predictors, partitions), where it is about half the size of
// appendTags's fixed width.
func appendVarintTags(b []byte, s tagset.Set) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, t := range s {
		b = binary.AppendUvarint(b, uint64(t))
	}
	return b
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func appendInt64s(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func appendFloat64s(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// LoadCheckpoint returns the newest checkpoint in dir that validates
// (magic, version, length, CRCs), or nil when the directory holds none —
// a fresh start. Corrupted newer checkpoints are skipped in favour of
// older valid ones.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	seqs, err := checkpointSeqs(dir)
	if err != nil || len(seqs) == 0 {
		return nil, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		cp, err := readCheckpoint(filepath.Join(dir, checkpointName(seqs[i])))
		if err == nil {
			return cp, nil
		}
	}
	return nil, fmt.Errorf("archive: no valid checkpoint among %d candidates in %s", len(seqs), dir)
}

// readCheckpoint loads one checkpoint file, taking the sequence number of
// a version-3 file from its name.
func readCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("archive: %s: %w", path, err)
	}
	if seq, ok := checkpointSeq(filepath.Base(path)); ok && cp.Seq == 0 {
		cp.Seq = seq
	}
	return cp, nil
}

// decodeCheckpoint verifies a checkpoint file's frame and decodes its
// payload, which must be version 3.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < ckptHeaderLen || string(data[:8]) != ckptMagic {
		return nil, fmt.Errorf("bad magic")
	}
	v := binary.LittleEndian.Uint32(data[8:12])
	if v != ckptVersion {
		return nil, fmt.Errorf("version %d", v)
	}
	n := binary.LittleEndian.Uint64(data[12:20])
	crc := binary.LittleEndian.Uint32(data[20:24])
	if uint64(len(data)-ckptHeaderLen) != n {
		return nil, fmt.Errorf("torn payload (%d of %d bytes)", len(data)-ckptHeaderLen, n)
	}
	return decodeSections(data, crc)
}

// decodeSections decodes a version-3 file whose frame decodeCheckpoint has
// checked, crc being the frame's table CRC. It rejects a table whose rows
// do not tile the file, a section whose CRC does not match, a section id
// it does not know, and sections out of file order, which includes a
// repeated one. Every count is bounded by the bytes left, and the tags of
// the whole file share one arena. Empty slices decode as nil.
func decodeSections(data []byte, crc uint32) (*Checkpoint, error) {
	if len(data) < ckptHeaderLen+4 {
		return nil, fmt.Errorf("short section table")
	}
	n := binary.LittleEndian.Uint32(data[ckptHeaderLen:])
	if uint64(n) > uint64((len(data)-ckptHeaderLen-4)/ckptRowLen) {
		return nil, fmt.Errorf("%d sections in %d bytes", n, len(data))
	}
	tableEnd := ckptHeaderLen + 4 + int(n)*ckptRowLen
	if crc32.ChecksumIEEE(data[ckptHeaderLen:tableEnd]) != crc {
		return nil, fmt.Errorf("section table CRC mismatch")
	}
	cp := &Checkpoint{}
	r := sectionReader{arena: new(tagArena)}
	var last sectionKey
	var have uint32 // bit id set: the file holds a section of that id
	off := tableEnd
	for i := range int(n) {
		row := data[ckptHeaderLen+4+i*ckptRowLen:]
		k := sectionKey{binary.LittleEndian.Uint16(row), int64(binary.LittleEndian.Uint64(row[2:]))}
		start, size := binary.LittleEndian.Uint64(row[10:]), binary.LittleEndian.Uint64(row[18:])
		if start != uint64(off) || size > uint64(len(data)-off) {
			return nil, fmt.Errorf("section %d (period %d): bytes %d+%d do not follow byte %d of %d",
				k.id, k.period, start, size, off, len(data))
		}
		body := data[off : off+int(size)]
		off += int(size)
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(row[26:]) {
			return nil, fmt.Errorf("section %d (period %d): CRC mismatch", k.id, k.period)
		}
		periodic := k.id == secPeriod || k.id == secEvents
		switch {
		case k.id < last.id || k.id == last.id && (!periodic || k.period <= last.period):
			return nil, fmt.Errorf("section %d (period %d) out of order or repeated", k.id, k.period)
		case !periodic && k.period != 0:
			return nil, fmt.Errorf("section %d has period %d", k.id, k.period)
		case k.id == secEvents && cp.Trend == nil:
			return nil, fmt.Errorf("trend events without trend state")
		}
		last, have = k, have|1<<k.id
		r.b, r.err = body, nil
		if err := r.section(cp, k); err != nil {
			return nil, fmt.Errorf("section %d (period %d): %w", k.id, k.period, err)
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("%d bytes after the last section", len(data)-off)
	}
	if want := uint32(1<<secCursor | 1<<secDict | 1<<secPartitions | 1<<secTracker); have&want != want {
		return nil, fmt.Errorf("missing sections (have %#x)", have)
	}
	return cp, nil
}

// sectionReader reads one section body front to back. The first read past
// the end sets err, and every read after it returns zero.
type sectionReader struct {
	b     []byte
	err   error
	arena *tagArena
}

// section decodes the body of k's section into cp. Sections arrive in
// file order, so the trend section precedes the event periods.
func (r *sectionReader) section(cp *Checkpoint, k sectionKey) error {
	switch k.id {
	case secCursor:
		cp.DocsFed, cp.ReplayFrom, cp.ReplayPeriod = r.i64(), r.i64(), r.i64()
	case secDict:
		n := 0 // a first pass counts the strings, so the slice is made once
		for b := r.b; len(b) > 0; n++ {
			l, k := binary.Uvarint(b)
			if k <= 0 || l > uint64(len(b)-k) {
				return fmt.Errorf("short string")
			}
			b = b[k+int(l):]
		}
		if n > 0 {
			cp.Dict = make([]string, n)
		}
		for i := range cp.Dict {
			cp.Dict[i] = string(r.take(r.uvarint()))
		}
	case secPartitions:
		cp.Epoch, cp.Merges = int(r.i64()), int(r.i64())
		cp.RefAvgCom, cp.RefMaxLoad, cp.HasRef = r.f64(), r.f64(), r.byte() == 1
		for r.more() {
			cp.Partitions = append(cp.Partitions, partition.Partition{Tags: r.varintTags(), Load: r.varint()})
		}
	case secTracker:
		tr := &cp.Tracker
		tr.Floor, tr.Pruned, tr.EvictedHits = r.i64(), r.i64(), r.i64()
		tr.Received, tr.Duplicates, tr.Late = r.i64(), r.i64(), r.i64()
		for r.more() {
			c := jaccard.Coefficient{Tags: r.varintTags(), J: r.f64(), CN: r.varint()}
			tr.Evicted = append(tr.Evicted, operators.EvictedCoefficient{Coeff: c, Period: r.varint()})
		}
	case secPeriod:
		pc := operators.PeriodCoefficients{Period: k.period}
		if n, err := countRecords(r.b, coeffTail); err != nil {
			return err
		} else if n > 0 {
			pc.Coeffs = make([]jaccard.Coefficient, n)
		}
		for i := range pc.Coeffs {
			pc.Coeffs[i] = r.coeff()
		}
		cp.Tracker.Periods = append(cp.Tracker.Periods, pc)
	case secTrend:
		st := &trend.StreamState{}
		st.Floor, st.Pruned, st.Latest = r.i64(), r.i64(), r.i64()
		st.Scored, st.Filtered, st.OutOfOrder = r.i64(), r.i64(), r.i64()
		st.Late, st.Published, st.Dropped = r.i64(), r.i64(), r.i64()
		for r.more() {
			p := trend.TrendPredictor{Tags: r.varintTags(), Expectation: r.f64()}
			h := r.varint()
			switch p.Seen = int(h >> 2); h & 3 {
			case baseWritten:
				p.Base = r.f64()
			case baseExpectation:
				p.Base = p.Expectation
			case baseZero:
			default:
				r.fail()
			}
			p.Period = r.varint()
			st.Predictors = append(st.Predictors, p)
		}
		cp.Trend = st
	case secEvents:
		pe := trend.PeriodTrendEvents{Period: k.period}
		if n, err := countRecords(r.b, trendTail); err != nil {
			return err
		} else if n > 0 {
			pe.Events = make([]trend.Event, n)
		}
		for i := range pe.Events {
			pe.Events[i] = trend.Event{Tags: r.tags(), Period: k.period,
				Predicted: r.f64(), Observed: r.f64(), Score: r.f64(), Rising: r.byte() == 1, CN: r.i64()}
		}
		cp.Trend.Periods = append(cp.Trend.Periods, pe)
	default:
		return fmt.Errorf("unknown section id")
	}
	if r.err == nil && len(r.b) > 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// countRecords counts the records of a section body that is a sequence of
// tagsets (appendTags), each followed by tail bytes, and fails unless the
// body splits into them exactly.
func countRecords(b []byte, tail int) (int, error) {
	n := 0
	for len(b) > 0 {
		if len(b) < 2 || len(b) < 2+4*int(binary.LittleEndian.Uint16(b))+tail {
			return 0, fmt.Errorf("short record")
		}
		b = b[2+4*int(binary.LittleEndian.Uint16(b))+tail:]
		n++
	}
	return n, nil
}

func (r *sectionReader) more() bool { return r.err == nil && len(r.b) > 0 }

// take returns the next n bytes, or nil past the end.
func (r *sectionReader) take(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *sectionReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("short section")
	}
	r.b = nil
}

func (r *sectionReader) byte() byte {
	if v := r.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *sectionReader) u64() uint64 {
	if v := r.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (r *sectionReader) i64() int64   { return int64(r.u64()) }
func (r *sectionReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *sectionReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *sectionReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// tags reads a tagset into the arena; no tags read as nil.
func (r *sectionReader) tags() tagset.Set {
	h := r.take(2)
	if h == nil {
		return nil
	}
	n := int(binary.LittleEndian.Uint16(h))
	b := r.take(4 * uint64(n))
	if b == nil || n == 0 {
		return nil
	}
	tags := r.arena.alloc(n)
	for i := range tags {
		tags[i] = tagset.Tag(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return tagset.FromSorted(tags)
}

// varintTags reads a tagset appendVarintTags wrote into the arena; no tags
// read as nil.
func (r *sectionReader) varintTags() tagset.Set {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.b)) { // a tag takes a byte at least
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	tags := r.arena.alloc(int(n))
	for i := range tags {
		t := r.uvarint()
		if t > math.MaxUint32 {
			r.fail()
		}
		tags[i] = tagset.Tag(t)
	}
	return tagset.FromSorted(tags)
}

// coeff reads a coefficient record payload (encodeCoeff).
func (r *sectionReader) coeff() jaccard.Coefficient {
	return jaccard.Coefficient{Tags: r.tags(), J: r.f64(), CN: r.i64()}
}

func checkpointName(seq uint64) string { return fmt.Sprintf("checkpoint-%012d.ckpt", seq) }

// checkpointSeq parses a checkpoint file name's sequence number.
func checkpointSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".ckpt") {
		return 0, false
	}
	s, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".ckpt"), 10, 64)
	return s, err == nil
}

// checkpointSeqs lists the checkpoint sequence numbers present in dir,
// ascending.
func checkpointSeqs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("archive: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if s, ok := checkpointSeq(e.Name()); ok {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}
