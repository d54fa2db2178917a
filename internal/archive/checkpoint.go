package archive

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/jaccard"
	"repro/internal/operators"
	"repro/internal/partition"
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
	Seq uint64 // checkpoint sequence number, monotonically increasing

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
	// layer: the Merger's current result and the Disseminators' inverted
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

// Checkpoint file layout. The frame is magic (8 bytes), version (uint32
// LE), payload length (uint64 LE), CRC32 of the payload (uint32 LE), then
// the payload. A file that fails any of those checks — torn tail included —
// is skipped and the previous checkpoint is used instead.
//
// A version-2 payload (ckptVersion, the one written) has two parts:
//
//   - the Tracker periods: their count (uint32 LE), then per period its id
//     (int64 LE), its coefficient count (uint32 LE) and each coefficient
//     as a segment record payload (encodeCoeff: tag count, tags, J, CN);
//   - the gob part, to the end of the payload: the gob encoding of the
//     Checkpoint with Tracker.Periods nil — cursor, dictionary,
//     partitions, evicted LRU, floors and trend state.
//
// A version-1 payload (ckptV1) is the gob part alone, with the Tracker
// periods inside it.
const (
	ckptV1      = 1
	ckptVersion = 2

	ckptHeaderLen = 24
	// ckptPeriodLen and minCoeffLen are the smallest encodings of a period
	// header and of a coefficient (no tags), which bound the counts a
	// decode accepts by the bytes left.
	ckptPeriodLen = 12
	minCoeffLen   = 2 + 16
)

// WriteCheckpoint flushes the open segments, then writes cp as the next
// checkpoint file (write-to-temp + rename, so a crash mid-write can never
// produce a file that passes validation), and finally removes all but the
// two newest checkpoints. The Writer's append mutex is held only for the
// flush and the sequence number; the encode, write, fsync, rename and
// retention run under ckptMu alone, which keeps concurrent checkpoints in
// sequence order while appends go on.
func (w *Writer) WriteCheckpoint(cp *Checkpoint) error {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("archive: writer closed")
	}
	for _, s := range w.open {
		s.flush(true)
	}
	w.seq++
	seq, fsyncHist := w.seq, w.fsyncHist
	w.mu.Unlock()

	cp.Seq = seq
	data, err := encodeCheckpoint(cp)
	if err != nil {
		return err
	}
	if w.beforeCkptSync != nil {
		w.beforeCkptSync()
	}

	final := filepath.Join(w.dir, checkpointName(seq))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	_, err = f.Write(data)
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

// LoadCheckpoint returns the newest checkpoint in dir that validates
// (magic, version, length, CRC), or nil when the directory holds none —
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

func readCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("archive: %s: %w", path, err)
	}
	return cp, nil
}

// encodeCheckpoint renders cp as a version-2 checkpoint file, frame
// included. The file is sized exactly before the periods are written.
func encodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	head := *cp
	head.Tracker.Periods = nil
	var gobPart bytes.Buffer
	if err := gob.NewEncoder(&gobPart).Encode(&head); err != nil {
		return nil, fmt.Errorf("archive: encode checkpoint: %w", err)
	}
	periods := cp.Tracker.Periods
	size := ckptHeaderLen + 4 + gobPart.Len()
	for _, pc := range periods {
		size += ckptPeriodLen
		for _, c := range pc.Coeffs {
			size += minCoeffLen + 4*c.Tags.Len()
		}
	}
	data := make([]byte, ckptHeaderLen, size)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(periods)))
	for _, pc := range periods {
		data = binary.LittleEndian.AppendUint64(data, uint64(pc.Period))
		data = binary.LittleEndian.AppendUint32(data, uint32(len(pc.Coeffs)))
		for _, c := range pc.Coeffs {
			data = encodeCoeff(data, c)
		}
	}
	data = append(data, gobPart.Bytes()...)
	copy(data, ckptMagic)
	binary.LittleEndian.PutUint32(data[8:], ckptVersion)
	binary.LittleEndian.PutUint64(data[12:], uint64(len(data)-ckptHeaderLen))
	binary.LittleEndian.PutUint32(data[20:], crc32.ChecksumIEEE(data[ckptHeaderLen:]))
	return data, nil
}

// decodeCheckpoint verifies a checkpoint file's frame and decodes its
// payload, version 1 or 2.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < ckptHeaderLen || string(data[:8]) != ckptMagic {
		return nil, fmt.Errorf("bad magic")
	}
	v := binary.LittleEndian.Uint32(data[8:12])
	if v != ckptV1 && v != ckptVersion {
		return nil, fmt.Errorf("version %d", v)
	}
	n := binary.LittleEndian.Uint64(data[12:20])
	crc := binary.LittleEndian.Uint32(data[20:24])
	if uint64(len(data)-ckptHeaderLen) != n {
		return nil, fmt.Errorf("torn payload (%d of %d bytes)", len(data)-ckptHeaderLen, n)
	}
	payload := data[ckptHeaderLen:]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("payload CRC mismatch")
	}
	var periods []operators.PeriodCoefficients
	if v == ckptVersion {
		var err error
		if periods, payload, err = decodePeriods(payload); err != nil {
			return nil, fmt.Errorf("decode periods: %w", err)
		}
	}
	var cp Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if v == ckptVersion {
		cp.Tracker.Periods = periods
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

func checkpointName(seq uint64) string { return fmt.Sprintf("checkpoint-%012d.ckpt", seq) }

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
		name := e.Name()
		if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		s, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".ckpt"), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}
