package archive

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// The compacted tier. Raw per-period segments accumulate forever on a
// long-lived deployment; the Compactor periodically coalesces runs of
// sealed periods into one compacted file each (`compact-<from>-<to>.seg`)
// and, under a disk budget, ages out the oldest compacted files. A
// compacted file holds every record decoding the raw segments would have
// kept, copied unchanged behind a period prefix and in the same order, so
// decoding it applies the same last-record-wins rule (mirroring CN
// upgrades) per period and every /history endpoint answers identically
// across the boundary; the savings come from per-file overhead and from
// the age-out tier bounding total disk.
//
// The MANIFEST file is the compacted tier's sole authority: a header line
// (manMagic) followed by one line per compacted file. It is only ever
// replaced whole via temp+rename, and every mutation follows a crash-safe
// order:
//
//	compact:  write compact file (tmp+fsync+rename) → publish manifest
//	          referencing it → delete the raw segments it subsumed
//	age-out:  publish manifest without the entry → delete the file
//
// so at every instant each period is findable in at least one tier
// (readers check raw first), the manifest never references a file that
// has not been durably published, and a crash at any step leaves only
// garbage that the next run's GC removes (unreferenced compact files,
// stray .tmp) or leftovers it finishes (raw segments already covered by
// the manifest).

// compactEntry is one manifest line: a compacted file, its inclusive
// period range, and the exact periods it contains (gaps are possible when
// the pipeline idled across period boundaries).
type compactEntry struct {
	file    string
	from    int64
	to      int64
	periods []int64 // ascending
}

// manifest is the decoded MANIFEST: entries ascending by range start;
// ranges never overlap.
type manifest struct {
	entries []compactEntry
}

// find returns the entry containing period, or nil.
func (m *manifest) find(period int64) *compactEntry {
	for i := range m.entries {
		e := &m.entries[i]
		if period < e.from || period > e.to {
			continue
		}
		for _, p := range e.periods {
			if p == period {
				return e
			}
		}
	}
	return nil
}

// readManifestFile decodes one manifest file. Format errors are loud: a
// silently-empty manifest would make every compacted period 404 while its
// raw segments are already deleted.
func readManifestFile(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != manMagic {
		return nil, fmt.Errorf("archive: %s: bad manifest header", filepath.Base(path))
	}
	m := &manifest{}
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("archive: manifest line %q", line)
		}
		from, err1 := strconv.ParseInt(fields[1], 10, 64)
		to, err2 := strconv.ParseInt(fields[2], 10, 64)
		if err1 != nil || err2 != nil || from > to {
			return nil, fmt.Errorf("archive: manifest line %q", line)
		}
		var periods []int64
		for _, s := range strings.Split(fields[3], ",") {
			p, err := strconv.ParseInt(s, 10, 64)
			if err != nil || p < from || p > to {
				return nil, fmt.Errorf("archive: manifest line %q", line)
			}
			periods = append(periods, p)
		}
		m.entries = append(m.entries, compactEntry{file: fields[0], from: from, to: to, periods: periods})
	}
	sort.Slice(m.entries, func(i, j int) bool { return m.entries[i].from < m.entries[j].from })
	return m, nil
}

// readManifestDir loads dir's manifest; a missing file is an empty tier.
func readManifestDir(dir string) (*manifest, error) {
	m, err := readManifestFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return &manifest{}, nil
		}
		return nil, err
	}
	return m, nil
}

// writeManifestDir publishes m as dir's manifest via temp+rename+fsync,
// the directory's fsync included, so a caller may delete what the new
// manifest supersedes as soon as it returns.
func writeManifestDir(dir string, m *manifest) error {
	var buf bytes.Buffer
	buf.WriteString(manMagic)
	buf.WriteByte('\n')
	for _, e := range m.entries {
		strs := make([]string, len(e.periods))
		for i, p := range e.periods {
			strs[i] = strconv.FormatInt(p, 10)
		}
		fmt.Fprintf(&buf, "%s %d %d %s\n", e.file, e.from, e.to, strings.Join(strs, ","))
	}
	final := filepath.Join(dir, manifestName)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, buf.Bytes()); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("archive: %w", err)
	}
	return syncDir(dir)
}

// writeFileSync writes data to path and fsyncs before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

// CompactorConfig tunes a Compactor.
type CompactorConfig struct {
	// FanIn is how many raw period segments coalesce into one compacted
	// file (default 8). Budget pressure may compact a shorter final run.
	FanIn int

	// BudgetBytes, when positive, bounds the archive directory's total
	// size: after compacting, the oldest compacted files are aged out
	// until the directory fits (live segments and checkpoints are counted
	// but never deleted).
	BudgetBytes int64

	// Interval is the background scan cadence (default 2s).
	Interval time.Duration

	// SafeBelow returns the newest period id that is sealed forever: the
	// compactor only touches periods <= this watermark. The pipeline
	// passes the retention pruning floor (reports at or below it are
	// rejected as late, so those segments can never grow again). A nil
	// SafeBelow treats every raw period as sealed — only correct on a
	// directory with no live writer.
	SafeBelow func() int64
}

func (c CompactorConfig) fanIn() int {
	if c.FanIn <= 0 {
		return 8
	}
	return c.FanIn
}

func (c CompactorConfig) interval() time.Duration {
	if c.Interval <= 0 {
		return 2 * time.Second
	}
	return c.Interval
}

// CompactorStats counts what the compactor has done.
type CompactorStats struct {
	Runs             int64
	Compactions      int64 // compacted files written
	CompactedPeriods int64 // raw segments folded into compacted files
	AgedOutFiles     int64 // compacted files deleted under budget pressure
	AgedOutPeriods   int64 // periods those files contained
	AgedOutBytes     int64 // bytes those files held when deleted
	DirBytes         int64 // directory size after the last run
}

// Compactor maintains an archive directory's compacted tier in the
// background. It is the only writer of the MANIFEST and of compact-*.seg
// files; RunOnce and the background loop are serialized internally.
type Compactor struct {
	dir string
	cfg CompactorConfig

	runMu sync.Mutex // serializes RunOnce vs the background loop

	// raw and out, under runMu, are compactBatch's buffers, reused across
	// batches and passes: the raw segment being compacted and its
	// compacted records.
	raw, out []byte

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}

	mu    sync.Mutex
	stats CompactorStats
	err   error // last RunOnce error

	// durHist, when set (SetDurationHist, before Start), records the
	// wall-clock duration of every maintenance pass.
	durHist *telemetry.Histogram

	// passHook, when set (SetPassHook, before Start), is called after
	// every maintenance pass with the post-pass stats and the pass error.
	// It runs on the compactor goroutine outside the stats lock.
	passHook func(CompactorStats, error)
}

// SetDurationHist wires a histogram recording each maintenance pass's
// duration. Call before Start.
func (c *Compactor) SetDurationHist(h *telemetry.Histogram) { c.durHist = h }

// SetPassHook wires a callback observing every maintenance pass (the
// flight recorder turns passes that compacted or aged out history into
// events). Call before Start.
func (c *Compactor) SetPassHook(f func(CompactorStats, error)) { c.passHook = f }

// NewCompactor returns a Compactor over dir; Start launches the loop.
func NewCompactor(dir string, cfg CompactorConfig) *Compactor {
	return &Compactor{dir: dir, cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
}

// Start launches the background loop (idempotent).
func (c *Compactor) Start() {
	c.startOnce.Do(func() { go c.loop() })
}

// Close stops the background loop and waits for it to exit. The last
// in-flight RunOnce completes; partial progress is crash-safe by
// construction, so there is no final flush to do.
func (c *Compactor) Close() {
	c.Start() // ensure the loop exists so done closes
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// Stats returns a copy of the counters.
func (c *Compactor) Stats() CompactorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Err returns the last RunOnce error (nil when the last run succeeded).
func (c *Compactor) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *Compactor) loop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.interval())
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.run()
		}
	}
}

func (c *Compactor) run() {
	err := c.RunOnce()
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
}

// RunOnce performs one full maintenance pass: GC of crash leftovers,
// compaction of every full fan-in run of sealed raw periods, then budget
// enforcement (a final short-run compaction if needed, and age-out of the
// oldest compacted files until the directory fits).
func (c *Compactor) RunOnce() (err error) {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if c.passHook != nil {
		defer func() { c.passHook(c.Stats(), err) }()
	}
	if c.durHist != nil {
		start := time.Now()
		defer func() { c.durHist.Record(time.Since(start)) }()
	}

	m, err := readManifestDir(c.dir)
	if err != nil {
		return err
	}
	if err := c.gc(m); err != nil {
		return err
	}

	eligible, err := c.eligiblePeriods(m)
	if err != nil {
		return err
	}
	fan := c.cfg.fanIn()
	for len(eligible) >= fan {
		if err := c.compactBatch(m, eligible[:fan]); err != nil {
			return err
		}
		eligible = eligible[fan:]
	}

	if c.cfg.BudgetBytes > 0 {
		if err := c.enforceBudget(m, eligible); err != nil {
			return err
		}
	}

	size, err := dirSize(c.dir)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.Runs++
	c.stats.DirBytes = size
	c.mu.Unlock()
	return nil
}

// eligiblePeriods lists raw periods at or below the SafeBelow watermark,
// ascending, after finishing any compaction a crash interrupted (raw
// segments already covered by the manifest are deleted — the manifest won,
// it was published before the deletes began).
func (c *Compactor) eligiblePeriods(m *manifest) ([]int64, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("archive: %w", err)
	}
	safe := int64(0)
	unlimited := c.cfg.SafeBelow == nil
	if !unlimited {
		safe = c.cfg.SafeBelow()
	}
	var out []int64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "period-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		p, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "period-"), ".seg"), 10, 64)
		if err != nil {
			continue
		}
		if !unlimited && p > safe {
			continue
		}
		if m.find(p) != nil {
			os.Remove(filepath.Join(c.dir, name))
			continue
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// compactBatch streams the given raw periods (ascending) into one
// compacted file, publishes the manifest entry, then deletes the raw
// segments.
func (c *Compactor) compactBatch(m *manifest, periods []int64) error {
	if len(periods) == 0 {
		return nil
	}
	from, to := periods[0], periods[len(periods)-1]
	name := compactName(from, to)
	final := filepath.Join(c.dir, name)
	tmp := final + ".tmp"
	if err := c.writeCompacted(tmp, periods); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("archive: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("archive: %w", err)
	}
	if err := syncDir(c.dir); err != nil {
		return err
	}

	m.entries = append(m.entries, compactEntry{file: name, from: from, to: to, periods: append([]int64(nil), periods...)})
	sort.Slice(m.entries, func(i, j int) bool { return m.entries[i].from < m.entries[j].from })
	if err := writeManifestDir(c.dir, m); err != nil {
		os.Remove(final)
		return err
	}
	for _, p := range periods {
		os.Remove(filepath.Join(c.dir, segmentName(p)))
	}

	c.mu.Lock()
	c.stats.Compactions++
	c.stats.CompactedPeriods += int64(len(periods))
	c.mu.Unlock()
	return nil
}

// writeCompacted writes the compacted file of periods to path and fsyncs
// it. It goes period by period: each raw segment is read into c.raw and
// its compacted records, appended to c.out, are written before the next
// is read, so the file is never whole in memory.
func (c *Compactor) writeCompacted(path string, periods []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	out := append(c.out[:0], cmpMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(periods[0]))
	out = binary.LittleEndian.AppendUint64(out, uint64(periods[len(periods)-1]))
	for _, p := range periods {
		if c.raw, err = readFileInto(c.raw, filepath.Join(c.dir, segmentName(p))); err != nil {
			break
		}
		out = appendCompacted(out, c.raw, p)
		if _, err = f.Write(out); err != nil {
			break
		}
		out = out[:0]
	}
	c.out = out
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readFileInto reads the file at path into buf's storage, which it grows
// only for a file larger than its capacity, and returns the bytes read.
func readFileInto(buf []byte, path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf[:0], err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return buf[:0], err
	}
	// A byte beyond the size leaves room for the read that returns io.EOF.
	buf = slices.Grow(buf[:0], int(fi.Size())+1)
	for {
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
	}
}

// appendCompacted copies the records of one raw segment's bytes to buf as
// compacted records, each payload unchanged behind the period prefix. It
// keeps exactly what decodeSegment keeps, in the same order: nothing after
// a bad header or the first invalid record, no record of an unknown kind,
// no payload that fails the decoders' shape check. Decoding the compacted
// records of the period therefore applies last-record-wins to the same
// sequence and yields the same Segment, with Torn clear.
func appendCompacted(buf, data []byte, period int64) []byte {
	if len(data) < 16 || string(data[:8]) != segMagic ||
		int64(binary.LittleEndian.Uint64(data[8:16])) != period {
		return buf
	}
	// The prefix grows a record by 8 bytes; a pair record (decodeSegment's
	// sizing unit) is 35 bytes raw.
	buf = slices.Grow(buf, len(data)+len(data)/35*8)
	for off := 16; ; {
		kind, payload, next, ok := readRecord(data, off)
		if !ok {
			return buf
		}
		switch kind {
		case recCoeff:
			if _, err := payloadShape(payload, coeffTail); err == nil {
				buf = appendPeriodRecord(buf, recCoeffP, period, payload)
			}
		case recTrend:
			if _, err := payloadShape(payload, trendTail); err == nil {
				buf = appendPeriodRecord(buf, recTrendP, period, payload)
			}
		}
		off = next
	}
}

// enforceBudget brings the directory under BudgetBytes: first the
// lossless step (compact the leftover short run of sealed raw periods),
// then the lossy one (age out the oldest compacted files, oldest history
// first) until the directory fits or nothing deletable remains.
func (c *Compactor) enforceBudget(m *manifest, leftover []int64) error {
	size, err := dirSize(c.dir)
	if err != nil {
		return err
	}
	if size > c.cfg.BudgetBytes && len(leftover) > 0 {
		if err := c.compactBatch(m, leftover); err != nil {
			return err
		}
		if size, err = dirSize(c.dir); err != nil {
			return err
		}
	}
	for size > c.cfg.BudgetBytes && len(m.entries) > 0 {
		e := m.entries[0]
		m.entries = m.entries[1:]
		if err := writeManifestDir(c.dir, m); err != nil {
			return err
		}
		var freed int64
		if fi, err := os.Stat(filepath.Join(c.dir, e.file)); err == nil {
			freed = fi.Size()
		}
		os.Remove(filepath.Join(c.dir, e.file))
		c.mu.Lock()
		c.stats.AgedOutFiles++
		c.stats.AgedOutPeriods += int64(len(e.periods))
		c.stats.AgedOutBytes += freed
		c.mu.Unlock()
		if size, err = dirSize(c.dir); err != nil {
			return err
		}
	}
	return nil
}

// gc removes crash leftovers this compactor owns: stray compactor temp
// files and compact files the manifest does not reference (a crash
// between the compact-file rename and the manifest publish). Checkpoint
// and period files are never touched — they belong to the Writer.
func (c *Compactor) gc(m *manifest) error {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("archive: %w", err)
	}
	referenced := make(map[string]bool, len(m.entries))
	for _, e := range m.entries {
		referenced[e.file] = true
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == manifestName+".tmp":
			os.Remove(filepath.Join(c.dir, name))
		case strings.HasPrefix(name, "compact-") && strings.HasSuffix(name, ".seg.tmp"):
			os.Remove(filepath.Join(c.dir, name))
		case strings.HasPrefix(name, "compact-") && strings.HasSuffix(name, ".seg") && !referenced[name]:
			os.Remove(filepath.Join(c.dir, name))
		}
	}
	return nil
}

// dirSize sums the sizes of dir's regular files.
func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("archive: %w", err)
	}
	var total int64
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		total += fi.Size()
	}
	return total, nil
}
