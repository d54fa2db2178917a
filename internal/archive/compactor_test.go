package archive

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tagset"
)

// populateArchive writes n sealed periods (1..n) of coefficients and trend
// events, including a CN upgrade per period so last-record-wins semantics
// are exercised across the compaction boundary. The pair (0, 10+p) exists
// only in period p, giving every period a distinguishing coefficient.
func populateArchive(t *testing.T, dir string, n int) {
	t.Helper()
	w, err := OpenWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= n; p++ {
		pp := int64(p)
		for i := 0; i < 6; i++ {
			w.AppendCoefficient(pp, coeff(tagset.Tag(i), tagset.Tag(i+10+p), float64(i+1)/10, pp))
		}
		// Upgrade: the decoded segment must keep CN p+100, not p.
		w.AppendCoefficient(pp, coeff(0, tagset.Tag(10+p), 0.1, pp+100))
		w.AppendEvent(event(1, tagset.Tag(11+p), pp, 0.5))
		w.AppendEvent(event(2, tagset.Tag(12+p), pp, 0.25))
		w.SealPeriod(pp)
	}
	w.Close()
}

// readAll snapshots every period's decoded segment through rd.
func readAll(t *testing.T, rd *Reader) (periods []int64, segs map[int64]*Segment) {
	t.Helper()
	periods, err := rd.Periods()
	if err != nil {
		t.Fatal(err)
	}
	segs = make(map[int64]*Segment, len(periods))
	for _, p := range periods {
		seg, err := rd.Segment(p)
		if err != nil || seg == nil {
			t.Fatalf("segment %d: %+v err=%v", p, seg, err)
		}
		segs[p] = seg
	}
	return periods, segs
}

// TestCompactionDifferential compacts a populated archive and verifies that
// every query answer — period list, per-period segments (coefficients with
// their CN upgrades, trend events, sort order) and pair lookups — is
// identical before and after compaction, both through the Reader that was
// already open across the boundary and through a fresh one.
func TestCompactionDifferential(t *testing.T) {
	dir := t.TempDir()
	populateArchive(t, dir, 10)

	rd := OpenReader(dir)
	beforePeriods, before := readAll(t, rd)
	if len(beforePeriods) != 10 {
		t.Fatalf("periods before = %v", beforePeriods)
	}
	oldPair := tagset.New(0, 11).Key() // only in period 1
	cBefore, pBefore, okBefore, _, err := rd.LookupPair(oldPair, 0)
	if err != nil || !okBefore || pBefore != 1 || cBefore.CN != 101 {
		t.Fatalf("LookupPair before: %+v period=%d ok=%v err=%v", cBefore, pBefore, okBefore, err)
	}

	c := NewCompactor(dir, CompactorConfig{FanIn: 4})
	if err := c.RunOnce(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Compactions != 2 || st.CompactedPeriods != 8 || st.AgedOutFiles != 0 {
		t.Fatalf("stats = %+v (want 2 compactions of 4 periods each)", st)
	}
	for p := 1; p <= 8; p++ {
		if _, err := os.Stat(filepath.Join(dir, segmentName(int64(p)))); !os.IsNotExist(err) {
			t.Fatalf("raw segment %d survived compaction (err=%v)", p, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}

	// The already-open Reader must re-resolve through the compacted tier.
	afterPeriods, after := readAll(t, rd)
	if !reflect.DeepEqual(beforePeriods, afterPeriods) {
		t.Fatalf("periods changed: %v -> %v", beforePeriods, afterPeriods)
	}
	for _, p := range beforePeriods {
		if !reflect.DeepEqual(before[p], after[p]) {
			t.Errorf("period %d differs after compaction:\nbefore %+v\nafter  %+v", p, before[p], after[p])
		}
	}
	cAfter, pAfter, okAfter, _, err := rd.LookupPair(oldPair, 0)
	if err != nil || !okAfter || pAfter != pBefore || !reflect.DeepEqual(cAfter, cBefore) {
		t.Fatalf("LookupPair after: %+v period=%d ok=%v err=%v", cAfter, pAfter, okAfter, err)
	}

	// A fresh Reader (no warm cache) agrees too.
	freshPeriods, fresh := readAll(t, OpenReader(dir))
	if !reflect.DeepEqual(beforePeriods, freshPeriods) {
		t.Fatalf("fresh periods = %v", freshPeriods)
	}
	for _, p := range beforePeriods {
		if !reflect.DeepEqual(before[p], fresh[p]) {
			t.Errorf("period %d differs for fresh reader", p)
		}
	}

	// A second pass finds nothing to do: the 2-period leftover run is below
	// the fan-in and there is no budget pressure.
	if err := c.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if st2 := c.Stats(); st2.Compactions != st.Compactions || st2.AgedOutFiles != 0 {
		t.Fatalf("idle pass mutated the tier: %+v", st2)
	}
}

// TestCompactionBudget verifies budget enforcement: the leftover short run
// is compacted losslessly first, then the oldest compacted files are aged
// out until the directory fits, and the surviving periods stay readable.
func TestCompactionBudget(t *testing.T) {
	dir := t.TempDir()
	populateArchive(t, dir, 12)

	// Phase 1: lossless compaction only, to learn the compacted sizes.
	c := NewCompactor(dir, CompactorConfig{FanIn: 4})
	if err := c.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Compactions != 3 || st.CompactedPeriods != 12 {
		t.Fatalf("lossless phase: %+v", st)
	}
	size, err := dirSize(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: a budget one byte below the current size forces exactly the
	// oldest compacted file (periods 1-4) out.
	budget := size - 1
	cb := NewCompactor(dir, CompactorConfig{FanIn: 4, BudgetBytes: budget})
	if err := cb.RunOnce(); err != nil {
		t.Fatal(err)
	}
	st := cb.Stats()
	if st.AgedOutFiles != 1 || st.AgedOutPeriods != 4 {
		t.Fatalf("age-out: %+v", st)
	}
	if st.DirBytes > budget {
		t.Fatalf("directory %d bytes over budget %d", st.DirBytes, budget)
	}

	rd := OpenReader(dir)
	periods, segs := readAll(t, rd)
	want := []int64{5, 6, 7, 8, 9, 10, 11, 12}
	if !reflect.DeepEqual(periods, want) {
		t.Fatalf("periods after age-out = %v, want %v", periods, want)
	}
	for _, p := range want {
		k := tagset.New(0, tagset.Tag(10+p)).Key()
		if c, ok := segs[p].Coefficient(k); !ok || c.CN != p+100 {
			t.Errorf("period %d lost its upgrade: %+v ok=%v", p, c, ok)
		}
	}
	// The aged-out pair is gone for good — a full scan misses it cleanly.
	if _, _, ok, truncated, err := rd.LookupPair(tagset.New(0, 11).Key(), 0); ok || truncated || err != nil {
		t.Fatalf("aged-out pair: ok=%v truncated=%v err=%v", ok, truncated, err)
	}
}

// TestCompactorCrashLeftovers verifies that a run cleans every kind of
// garbage a crash can leave — stray temp files, an unreferenced compacted
// file, and a raw segment the manifest already covers — without touching
// the published tier.
func TestCompactorCrashLeftovers(t *testing.T) {
	dir := t.TempDir()
	populateArchive(t, dir, 8)
	c := NewCompactor(dir, CompactorConfig{FanIn: 8})
	if err := c.RunOnce(); err != nil {
		t.Fatal(err)
	}
	_, clean := readAll(t, OpenReader(dir))

	// Crash leftovers: a torn manifest swap, a torn compact write, a compact
	// file whose manifest publish never happened, and a raw segment whose
	// deletion (post-publish) never happened.
	for _, name := range []string{manifestName + ".tmp", "compact-100-200.seg.tmp", "compact-100-200.seg"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(3)), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := c.RunOnce(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{manifestName + ".tmp", "compact-100-200.seg.tmp", "compact-100-200.seg", segmentName(3)} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("leftover %s survived GC (err=%v)", name, err)
		}
	}
	if st := c.Stats(); st.Compactions != 1 {
		t.Fatalf("GC recompacted: %+v", st)
	}
	periods, segs := readAll(t, OpenReader(dir))
	if len(periods) != 8 {
		t.Fatalf("periods after GC = %v", periods)
	}
	for _, p := range periods {
		if !reflect.DeepEqual(clean[p], segs[p]) {
			t.Errorf("period %d changed across GC", p)
		}
	}
}

// TestSegmentRawDeletedBetweenStatAndRead forces the interleaving the
// concurrent test below only meets by chance: the Reader stats a raw
// segment, the compactor folds and deletes it, then the Reader opens it. The
// period must be served from the compacted tier, identical to what the raw
// file held, not fail with the vanished file's ENOENT.
func TestSegmentRawDeletedBetweenStatAndRead(t *testing.T) {
	dir := t.TempDir()
	populateArchive(t, dir, 4)
	_, want := readAll(t, OpenReader(dir))

	rd := OpenReader(dir)
	c := NewCompactor(dir, CompactorConfig{FanIn: 4})
	compacted := false
	rd.afterRawStat = func() {
		if compacted {
			return
		}
		compacted = true
		if err := c.RunOnce(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, segmentName(2))); !os.IsNotExist(err) {
			t.Fatalf("raw segment 2 survived compaction (err=%v)", err)
		}
	}
	seg, err := rd.Segment(2)
	if err != nil || seg == nil {
		t.Fatalf("Segment(2) across the delete: seg=%v err=%v", seg, err)
	}
	if !compacted {
		t.Fatal("hook never ran: the raw tier was not consulted")
	}
	if !reflect.DeepEqual(seg, want[2]) {
		t.Errorf("period 2 differs across the delete:\nraw       %+v\ncompacted %+v", want[2], seg)
	}
}

// TestSegmentCompactedAgedOutBetweenStatAndRead forces the same window on
// the compacted tier: the Reader stats a compacted file its cached manifest
// lists, age-out deletes the file, then the Reader reads it. The period is
// gone for good, so it must read as absent — a fresh manifest no longer
// lists it — not fail with the vanished file's ENOENT.
func TestSegmentCompactedAgedOutBetweenStatAndRead(t *testing.T) {
	dir := t.TempDir()
	populateArchive(t, dir, 8)
	if err := NewCompactor(dir, CompactorConfig{FanIn: 4}).RunOnce(); err != nil {
		t.Fatal(err)
	}
	size, err := dirSize(dir)
	if err != nil {
		t.Fatal(err)
	}

	rd := OpenReader(dir)
	if seg, err := rd.Segment(6); err != nil || seg == nil { // caches the manifest
		t.Fatalf("Segment(6): seg=%v err=%v", seg, err)
	}
	agedOut := false
	rd.afterCompactStat = func() {
		if agedOut {
			return
		}
		agedOut = true
		c := NewCompactor(dir, CompactorConfig{FanIn: 4, BudgetBytes: size - 1})
		if err := c.RunOnce(); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.AgedOutPeriods != 4 {
			t.Fatalf("age-out: %+v", st)
		}
	}
	seg, err := rd.Segment(2)
	if err != nil || seg != nil {
		t.Fatalf("Segment(2) across the age-out: seg=%v err=%v, want absent", seg, err)
	}
	if !agedOut {
		t.Fatal("hook never ran: the compacted tier was not consulted")
	}
	if seg, err := rd.Segment(6); err != nil || seg == nil {
		t.Fatalf("Segment(6) after the age-out: seg=%v err=%v", seg, err)
	}
}

// TestConcurrentReaderCompactor runs a live Writer, a Compactor driven by an
// advancing seal watermark, and concurrent Readers together: the -race smoke
// of the live/compacted boundary (the stat-then-read window itself is forced
// by TestSegmentRawDeletedBetweenStatAndRead). The invariant: a period at
// or below the watermark observed before the query must always be served,
// from whichever tier currently holds it.
func TestConcurrentReaderCompactor(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	var watermark atomic.Int64
	c := NewCompactor(dir, CompactorConfig{FanIn: 3, SafeBelow: watermark.Load})

	const periods = 30
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Compactor loop: continuous passes instead of the timer, to maximize
	// overlap with reads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.RunOnce(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Reader loops: every period at or below the pre-query watermark must
	// resolve to a segment holding its distinguishing coefficient.
	for r := 0; r < 2; r++ {
		rd := OpenReader(dir)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sealed := watermark.Load()
				for p := int64(1); p <= sealed; p++ {
					seg, err := rd.Segment(p)
					if err != nil || seg == nil {
						t.Errorf("sealed period %d unreadable: seg=%v err=%v", p, seg, err)
						return
					}
					if _, ok := seg.Coefficient(tagset.New(0, tagset.Tag(10+p)).Key()); !ok {
						t.Errorf("period %d lost its coefficient", p)
						return
					}
				}
				if _, err := rd.Periods(); err != nil {
					t.Errorf("Periods: %v", err)
					return
				}
			}
		}()
	}

	// Writer: seal one period at a time, then advance the watermark — after
	// that, nothing appends to it ever again.
	for p := int64(1); p <= periods; p++ {
		for i := 0; i < 4; i++ {
			w.AppendCoefficient(p, coeff(tagset.Tag(i), tagset.Tag(int64(i)+10+p), 0.5, p))
		}
		w.AppendEvent(event(1, tagset.Tag(11+p), p, 0.4))
		w.SealPeriod(p)
		watermark.Store(p)
	}
	close(stop)
	wg.Wait()
	w.Close()

	// One quiescent pass, then the full differential check.
	if err := c.RunOnce(); err != nil {
		t.Fatal(err)
	}
	got, segs := readAll(t, OpenReader(dir))
	if len(got) != periods {
		t.Fatalf("final periods = %v", got)
	}
	for _, p := range got {
		if _, ok := segs[p].Coefficient(tagset.New(0, tagset.Tag(10+p)).Key()); !ok {
			t.Errorf("final period %d lost its coefficient", p)
		}
	}
	if st := c.Stats(); st.CompactedPeriods == 0 {
		t.Error("compactor never compacted anything during the concurrent run")
	}
}

// TestManifestFormatErrors verifies manifest damage is loud: a reader must
// fail rather than silently treat compacted history as missing.
func TestManifestFormatErrors(t *testing.T) {
	dir := t.TempDir()
	populateArchive(t, dir, 4)
	c := NewCompactor(dir, CompactorConfig{FanIn: 4})
	if err := c.RunOnce(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	for _, bad := range []string{
		"WRONGMAG\ncompact-1-4.seg 1 4 1,2,3,4\n",
		manMagic + "\ncompact-1-4.seg 1 4\n",       // missing periods field
		manMagic + "\ncompact-1-4.seg 4 1 1\n",     // inverted range
		manMagic + "\ncompact-1-4.seg 1 4 1,2,9\n", // period outside range
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenReader(dir).Periods(); err == nil {
			t.Errorf("manifest %q accepted", bad)
		}
	}
}

// TestCompactFileCorruption verifies compacted-file damage is an error, not
// a silent truncation: unlike raw segments, compacted files are published
// whole, so framing damage means disk corruption.
func TestCompactFileCorruption(t *testing.T) {
	dir := t.TempDir()
	populateArchive(t, dir, 4)
	c := NewCompactor(dir, CompactorConfig{FanIn: 4})
	if err := c.RunOnce(); err != nil {
		t.Fatal(err)
	}
	name := compactName(1, 4)
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(dir).Segment(2); err == nil {
		t.Error("corrupt compacted file decoded without error")
	}
}
