package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/jaccard"
	"repro/internal/tagset"
	"repro/internal/trend"
)

// maxCachedSegments bounds the Reader's decoded-segment LRU. History
// queries concentrate on a few hot periods; everything else streams from
// disk on demand. Decoding one compacted file populates up to a fan-in's
// worth of periods at once, so the bound is sized at twice the
// compactor's default fan-in: one full compacted file plus hot raw
// periods fit without thrashing, while large-period archives don't pin
// hundreds of megabytes of decoded state.
const maxCachedSegments = 16

// Segment is one decoded period: the deduplicated coefficients (last
// record wins per tagset, mirroring the Tracker's CN-upgrade semantics)
// and the scored trend deviations. Torn reports that decoding stopped at
// an invalid record — the tail a crash left unflushed. The Tags of its
// coefficients and events are cut from arenas the segment owns (cap ==
// len each); like every tagset.Set they must not be written to.
type Segment struct {
	Period int64
	Coeffs []jaccard.Coefficient // sorted by descending J (report order)
	Trends []trend.Event         // sorted by descending score
	Torn   bool

	byKey map[tagset.Key]int32 // position in Coeffs
}

// Coefficient returns the period's coefficient for one tagset key.
func (s *Segment) Coefficient(k tagset.Key) (jaccard.Coefficient, bool) {
	i, ok := s.byKey[k]
	if !ok {
		return jaccard.Coefficient{}, false
	}
	return s.Coeffs[i], true
}

// fileGen identifies one on-disk generation of a file: compaction replaces
// files wholesale (a rewritten file can shrink back to a previously seen
// size), so cache entries are validated against size and mtime together
// rather than size alone.
type fileGen struct {
	size    int64
	mtimeNS int64
}

// statGen stats path into a generation key. A missing file returns
// ok=false with a nil error.
func statGen(path string) (gen fileGen, ok bool, err error) {
	fi, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return fileGen{}, false, nil
		}
		return fileGen{}, false, fmt.Errorf("archive: %w", err)
	}
	return fileGen{size: fi.Size(), mtimeNS: fi.ModTime().UnixNano()}, true, nil
}

// Reader serves history queries from an archive directory. Periods are
// looked up in the raw per-period tier first, then in the compacted tier
// through the MANIFEST; checking raw before compacted makes the lookup
// safe against a concurrent compactor, which always publishes the new
// manifest before deleting the raw files it subsumed. The decoded-segment
// LRU is keyed by source path + file generation (size and mtime), so both
// live appends and compaction rewrites invalidate naturally. All methods
// are safe for concurrent use.
type Reader struct {
	dir string

	mu    sync.Mutex
	cache map[int64]*cachedSegment
	order []int64 // cached periods, least recently used first

	man    *manifest
	manGen fileGen
	manOK  bool

	// afterRawStat, when set by a test, runs between Segment's stat of a
	// raw segment file and its read, the window a compactor can delete the
	// file in. afterCompactStat does the same for a compacted file, which
	// age-out can delete.
	afterRawStat, afterCompactStat func()
}

type cachedSegment struct {
	seg *Segment
	src string // path the decode came from (raw or compacted file)
	gen fileGen
}

// OpenReader returns a Reader over dir. The directory may be empty or not
// yet exist (queries then answer empty); it may also be actively written
// by a live pipeline and compactor.
func OpenReader(dir string) *Reader {
	return &Reader{dir: dir, cache: make(map[int64]*cachedSegment)}
}

// rawPeriods lists the period ids with a raw segment on disk, ascending.
func (r *Reader) rawPeriods() ([]int64, error) {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("archive: %w", err)
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
		out = append(out, p)
	}
	slices.Sort(out)
	return out, nil
}

// Periods lists the period ids answerable from disk — the raw tier's
// directory scan merged with the compacted tier's manifest — ascending.
// It re-checks both tiers on every call, so freshly opened periods and
// fresh compactions appear without invalidation machinery.
func (r *Reader) Periods() ([]int64, error) {
	raw, err := r.rawPeriods()
	if err != nil {
		return nil, err
	}
	man, err := r.loadManifest()
	if err != nil {
		return nil, err
	}
	if len(man.entries) == 0 {
		return raw, nil
	}
	seen := make(map[int64]bool, len(raw))
	out := raw
	for _, p := range raw {
		seen[p] = true
	}
	for _, e := range man.entries {
		for _, p := range e.periods {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// loadManifest returns the current compacted-tier manifest, re-reading it
// from disk only when its generation (size+mtime) changed. A missing
// manifest is an empty compacted tier, not an error.
func (r *Reader) loadManifest() (*manifest, error) {
	path := filepath.Join(r.dir, manifestName)
	gen, ok, err := statGen(path)
	if err != nil {
		return nil, err
	}
	if !ok {
		return &manifest{}, nil
	}
	r.mu.Lock()
	if r.manOK && r.manGen == gen {
		m := r.man
		r.mu.Unlock()
		return m, nil
	}
	r.mu.Unlock()

	m, err := readManifestFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			// Replaced-and-aged-out between stat and read; treat as the
			// next generation will be picked up on the following call.
			return &manifest{}, nil
		}
		return nil, err
	}

	r.mu.Lock()
	r.man, r.manGen, r.manOK = m, gen, true
	r.mu.Unlock()
	return m, nil
}

// invalidateManifest drops the cached manifest so the next lookup re-reads
// it. Used when a compacted file named by the cached manifest turns out to
// be gone (aged out underneath us).
func (r *Reader) invalidateManifest() {
	r.mu.Lock()
	r.man, r.manGen, r.manOK = nil, fileGen{}, false
	r.mu.Unlock()
}

// Segment returns one period's decoded segment, from the LRU when its
// source file has not changed since it was cached. The raw tier wins over
// the compacted tier (it is at least as fresh: the compactor deletes raw
// files only after the manifest covering them is durable). A period found
// in neither tier returns (nil, nil).
func (r *Reader) Segment(period int64) (*Segment, error) {
	path := filepath.Join(r.dir, segmentName(period))
	gen, ok, err := statGen(path)
	if err != nil {
		return nil, err
	}
	if ok {
		if seg := r.lookupCache(period, path, gen); seg != nil {
			return seg, nil
		}
		if r.afterRawStat != nil {
			r.afterRawStat()
		}
		seg, size, err := decodeSegmentFile(path, period)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// The compactor deleted the raw file between the stat and the
			// read. It published the manifest covering the period first,
			// so the period is not in the raw tier any more: fall through.
		case err != nil:
			return nil, err
		default:
			// Re-derive the generation from the byte count actually read:
			// if the file grew between stat and read, caching the pre-read
			// gen would wrongly serve the longer decode as the shorter
			// generation's answer. Size mismatch → cache under what was
			// read.
			gen.size = size
			r.storeCache(period, &cachedSegment{seg: seg, src: path, gen: gen})
			return seg, nil
		}
	}
	return r.compactedSegment(period, true)
}

// compactedSegment resolves a period through the manifest. retry allows
// one manifest re-read when a listed compacted file is missing — the
// race window where the cached manifest predates an age-out — whether the
// stat finds it gone or the read does.
func (r *Reader) compactedSegment(period int64, retry bool) (*Segment, error) {
	man, err := r.loadManifest()
	if err != nil {
		return nil, err
	}
	e := man.find(period)
	if e == nil {
		return nil, nil
	}
	cpath := filepath.Join(r.dir, e.file)
	gen, ok, err := statGen(cpath)
	if err != nil {
		return nil, err
	}
	var segs map[int64]*Segment
	if ok {
		if seg := r.lookupCache(period, cpath, gen); seg != nil {
			return seg, nil
		}
		if r.afterCompactStat != nil {
			r.afterCompactStat()
		}
		segs, err = decodeCompactFile(cpath)
		ok = !errors.Is(err, fs.ErrNotExist)
	}
	if !ok {
		// Aged out since the manifest was read: age-out publishes the
		// manifest without the file before it deletes the file, so a
		// fresh manifest no longer lists the period.
		if retry {
			r.invalidateManifest()
			return r.compactedSegment(period, false)
		}
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var found *Segment
	for _, p := range e.periods {
		seg := segs[p]
		if seg == nil {
			// The manifest lists the period (its raw segment existed,
			// possibly empty of records) but the compacted file holds no
			// records for it: an empty period is still a period, decoded
			// as its raw segment's header alone would be.
			seg = newSegAccum(p, 0).finish()
		}
		r.storeCache(p, &cachedSegment{seg: seg, src: cpath, gen: gen})
		if p == period {
			found = seg
		}
	}
	return found, nil
}

// lookupCache returns the cached segment for period if it was decoded
// from the same source file generation, else nil.
func (r *Reader) lookupCache(period int64, src string, gen fileGen) *Segment {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.cache[period]; ok && c.src == src && c.gen == gen {
		r.touchLocked(period)
		return c.seg
	}
	return nil
}

func (r *Reader) storeCache(period int64, c *cachedSegment) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.cache[period]; !ok {
		r.order = append(r.order, period)
	}
	r.cache[period] = c
	r.touchLocked(period)
	for len(r.order) > maxCachedSegments {
		delete(r.cache, r.order[0])
		r.order = r.order[1:]
	}
}

func (r *Reader) touchLocked(period int64) {
	for i, p := range r.order {
		if p == period {
			r.order = append(append(r.order[:i:i], r.order[i+1:]...), period)
			return
		}
	}
}

// LookupPair returns the most recent archived coefficient for one tagset
// key, scanning at most maxPeriods on-disk periods newest first (<= 0
// scans everything). This is the history analogue of Tracker.Lookup: it
// answers arbitrarily far past both the retention window and the
// evicted-pair LRU, at the cost of decoding cold segments until the pair
// is found. Callers serving unauthenticated traffic should bound the scan
// — a pair that was never reported would otherwise cost a full decode of
// the entire archive (and churn the segment LRU) on every request.
// truncated reports that the bound left older periods unscanned, so a
// miss with truncated=true means "not scanned", not "never reported".
func (r *Reader) LookupPair(k tagset.Key, maxPeriods int) (c jaccard.Coefficient, period int64, ok, truncated bool, err error) {
	periods, err := r.Periods()
	if err != nil {
		return jaccard.Coefficient{}, 0, false, false, err
	}
	if maxPeriods > 0 && len(periods) > maxPeriods {
		periods = periods[len(periods)-maxPeriods:]
		truncated = true
	}
	for i := len(periods) - 1; i >= 0; i-- {
		seg, err := r.Segment(periods[i])
		if err != nil {
			return jaccard.Coefficient{}, 0, false, truncated, err
		}
		if seg == nil {
			continue
		}
		if c, ok := seg.Coefficient(k); ok {
			return c, periods[i], true, truncated, nil
		}
	}
	return jaccard.Coefficient{}, 0, false, truncated, nil
}

// decodeSegmentFile streams one segment file into a Segment: records are
// CRC-checked one by one and decoding stops at the first invalid record
// (torn tail), returning everything before it.
func decodeSegmentFile(path string, period int64) (*Segment, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("archive: %w", err)
	}
	return decodeSegment(data, period), int64(len(data)), nil
}

// segAccum accumulates one period's records during a decode, applying the
// last-record-wins rule for both coefficients (CN upgrades) and trend
// events (corrections), then finishes into a deterministically sorted
// Segment. It owns the arena the records' tags are decoded into, so the
// tags live exactly as long as the segment that references them.
type segAccum struct {
	seg *Segment
	// Until finish, seg.byKey and trendIdx hold positions in coeffs and
	// seg.Trends, both in first-report order: a re-report overwrites its
	// slot.
	coeffs   []reportedCoeff
	trendIdx map[tagset.Key]int32
	arena    tagArena
	key      []byte // reused: a map lookup by string(key) does not allocate
}

// reportedCoeff is a coefficient with its first-report position, which is
// how finish finds where sorting moved what byKey points at.
type reportedCoeff struct {
	jaccard.Coefficient
	first int32
}

// newSegAccum returns an accumulator for period sized for about records
// records (0: unknown).
func newSegAccum(period int64, records int) *segAccum {
	return &segAccum{
		seg:      &Segment{Period: period, Trends: []trend.Event{}, byKey: make(map[tagset.Key]int32, records)},
		coeffs:   make([]reportedCoeff, 0, records),
		trendIdx: make(map[tagset.Key]int32),
	}
}

// coeff decodes one coefficient payload into the period. The key becomes
// a string only for a tagset's first report.
func (a *segAccum) coeff(payload []byte) error {
	c, err := decodeCoeffIn(payload, &a.arena)
	if err != nil {
		return err
	}
	a.key = c.Tags.AppendKey(a.key[:0])
	if i, ok := a.seg.byKey[tagset.Key(a.key)]; ok {
		a.coeffs[i].Coefficient = c
		return nil
	}
	first := int32(len(a.coeffs))
	a.seg.byKey[tagset.Key(a.key)] = first
	a.coeffs = append(a.coeffs, reportedCoeff{c, first})
	return nil
}

// trend is coeff for a trend-event payload.
func (a *segAccum) trend(payload []byte) error {
	ev, err := decodeTrendIn(payload, a.seg.Period, &a.arena)
	if err != nil {
		return err
	}
	a.key = ev.Tags.AppendKey(a.key[:0])
	if i, ok := a.trendIdx[tagset.Key(a.key)]; ok {
		a.seg.Trends[i] = ev
		return nil
	}
	a.trendIdx[tagset.Key(a.key)] = int32(len(a.seg.Trends))
	a.seg.Trends = append(a.seg.Trends, ev)
	return nil
}

func (a *segAccum) finish() *Segment {
	seg := a.seg
	slices.SortFunc(a.coeffs, func(x, y reportedCoeff) int {
		switch {
		case x.J != y.J:
			return descending(x.J > y.J)
		case x.CN != y.CN:
			return descending(x.CN > y.CN)
		}
		return tagset.Compare(x.Tags, y.Tags)
	})
	seg.Coeffs = make([]jaccard.Coefficient, len(a.coeffs))
	sorted := make([]int32, len(a.coeffs)) // first-report position → position in Coeffs
	for i, c := range a.coeffs {
		seg.Coeffs[i] = c.Coefficient
		sorted[c.first] = int32(i)
	}
	for k, first := range seg.byKey {
		seg.byKey[k] = sorted[first]
	}
	slices.SortFunc(seg.Trends, func(x, y trend.Event) int {
		if x.Score != y.Score {
			return descending(x.Score > y.Score)
		}
		return tagset.Compare(x.Tags, y.Tags)
	})
	return seg
}

// descending is the comparator result for two unequal values of which the
// first is the greater (or not).
func descending(firstGreater bool) int {
	if firstGreater {
		return -1
	}
	return 1
}

// decodeSegment decodes a segment's raw bytes. It accepts arbitrary input
// — the bytes may come from a crashed writer or a corrupted disk — and
// never fails: undecodable content only flips Torn and bounds what is
// returned.
func decodeSegment(data []byte, period int64) *Segment {
	if len(data) < 16 || string(data[:8]) != segMagic ||
		int64(binary.LittleEndian.Uint64(data[8:16])) != period {
		seg := newSegAccum(period, 0).finish()
		seg.Torn = len(data) > 0
		return seg
	}
	// A coefficient record of the smallest tagset worth correlating, a pair,
	// takes 35 bytes; sizing for that many spares the map and the slice
	// their growth steps on the coefficient-only bulk of a segment.
	const pairRecord = 5 + 2 + 2*4 + 16 + 4
	acc := newSegAccum(period, len(data)/pairRecord)
	off := 16
	for off < len(data) {
		kind, payload, next, ok := readRecord(data, off)
		if !ok {
			acc.seg.Torn = true
			break
		}
		switch kind {
		case recCoeff:
			if acc.coeff(payload) != nil {
				acc.seg.Torn = true
			}
		case recTrend:
			if acc.trend(payload) != nil {
				acc.seg.Torn = true
			}
		}
		off = next
	}
	return acc.finish()
}

// decodeCompactFile decodes one compacted file into its per-period
// segments. Unlike raw segments (whose tails can legitimately be torn by
// a crash mid-append), compacted files are published whole via
// temp+rename, so framing damage here is reported as an error rather than
// silently truncating history.
func decodeCompactFile(path string) (map[int64]*Segment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	if len(data) < 24 || string(data[:8]) != cmpMagic {
		return nil, fmt.Errorf("archive: %s: bad compacted-segment header", filepath.Base(path))
	}
	from := int64(binary.LittleEndian.Uint64(data[8:16]))
	to := int64(binary.LittleEndian.Uint64(data[16:24]))
	accs := make(map[int64]*segAccum)
	acc := func(p int64) *segAccum {
		a := accs[p]
		if a == nil {
			a = newSegAccum(p, 0)
			accs[p] = a
		}
		return a
	}
	off := 24
	for off < len(data) {
		kind, payload, next, ok := readRecord(data, off)
		if !ok {
			return nil, fmt.Errorf("archive: %s: invalid record at offset %d", filepath.Base(path), off)
		}
		if len(payload) < 8 {
			return nil, fmt.Errorf("archive: %s: short period prefix", filepath.Base(path))
		}
		p := int64(binary.LittleEndian.Uint64(payload))
		if p < from || p > to {
			return nil, fmt.Errorf("archive: %s: period %d outside range [%d, %d]", filepath.Base(path), p, from, to)
		}
		switch kind {
		case recCoeffP:
			err = acc(p).coeff(payload[8:])
		case recTrendP:
			err = acc(p).trend(payload[8:])
		default:
			return nil, fmt.Errorf("archive: %s: unknown record kind %d", filepath.Base(path), kind)
		}
		if err != nil {
			return nil, fmt.Errorf("archive: %s: %w", filepath.Base(path), err)
		}
		off = next
	}
	out := make(map[int64]*Segment, len(accs))
	for p, a := range accs {
		out[p] = a.finish()
	}
	return out, nil
}
