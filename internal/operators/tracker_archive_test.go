package operators

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/tagset"
)

// archiveCall is one AppendCoefficients call a recordingArchive received.
type archiveCall struct {
	period int64
	coeffs []jaccard.Coefficient
}

// recordingArchive is a TrackerArchive that keeps what it is handed.
// onAppend, when set, runs at the start of every append.
type recordingArchive struct {
	mu       sync.Mutex
	calls    []archiveCall
	sealed   []int64
	onAppend func()
}

func (a *recordingArchive) AppendCoefficients(period int64, cs []jaccard.Coefficient) {
	if a.onAppend != nil {
		a.onAppend()
	}
	a.mu.Lock()
	a.calls = append(a.calls, archiveCall{period, append([]jaccard.Coefficient(nil), cs...)})
	a.mu.Unlock()
}

func (a *recordingArchive) SealPeriod(period int64) {
	a.mu.Lock()
	a.sealed = append(a.sealed, period)
	a.mu.Unlock()
}

// TestTrackerArchivesAcceptedBatch: each ingested batch reaches the archive
// as one call holding exactly the reports that changed the tables — fresh
// values and CN upgrades, in arrival order — and a batch that changed
// nothing, or arrived for a pruned period, makes no call.
func TestTrackerArchivesAcceptedBatch(t *testing.T) {
	a, b, c := tagset.New(1, 2), tagset.New(3, 4), tagset.New(5, 6, 7)
	co := func(s tagset.Set, j float64, cn int64) jaccard.Coefficient {
		return jaccard.Coefficient{Tags: s, J: j, CN: cn}
	}
	arch := &recordingArchive{}
	tr := NewTrackerWith(0, 0, 0)
	tr.SetRetention(1)
	tr.SetArchive(arch)

	tr.Execute(coeffBatchTuple(1, co(a, 0.5, 3), co(b, 0.25, 2), co(a, 0.5, 5), co(a, 0.5, 4)), nil)
	tr.Execute(coeffBatchTuple(1, co(b, 0.25, 1)), nil) // loses the CN comparison
	tr.Execute(coeffBatchTuple(1, co(c, 0.75, 1), co(b, 0.25, 7)), nil)
	tr.Execute(coeffBatchTuple(2, co(a, 0.5, 1)), nil)  // prunes period 1
	tr.Execute(coeffBatchTuple(1, co(c, 0.75, 9)), nil) // late

	want := []archiveCall{
		{1, []jaccard.Coefficient{co(a, 0.5, 3), co(b, 0.25, 2), co(a, 0.5, 5)}},
		{1, []jaccard.Coefficient{co(c, 0.75, 1), co(b, 0.25, 7)}},
		{2, []jaccard.Coefficient{co(a, 0.5, 1)}},
	}
	if !reflect.DeepEqual(arch.calls, want) {
		t.Errorf("archive calls\n got %v\nwant %v", arch.calls, want)
	}
	if !reflect.DeepEqual(arch.sealed, []int64{1}) {
		t.Errorf("sealed = %v, want [1]", arch.sealed)
	}
}

// TestExportStateWaitsForArchiveAppend starts an ExportState while a batch
// sits between its report loop and its archive append. The export copies
// that batch's reports, so it must not return before the append: a
// checkpoint of it is made durable by the segment flush that follows, and
// an export returning earlier could reference reports a crash then loses
// for good. The test decides by which of two events comes first — the
// export returning, or the export waiting at the intake barrier — and
// never by a timer.
func TestExportStateWaitsForArchiveAppend(t *testing.T) {
	arch := &recordingArchive{}
	tr := NewTrackerWith(0, 0, 0)
	tr.SetArchive(arch)
	first := jaccard.Coefficient{Tags: tagset.New(1, 2), J: 0.5, CN: 2}
	tr.Execute(coeffBatchTuple(1, first), nil)

	var exported TrackerState
	exportDone := make(chan struct{})
	barrierPending := make(chan struct{})
	appendedAfterExport := false
	arch.onAppend = func() {
		select {
		case <-exportDone:
			appendedAfterExport = true
		default:
		}
	}
	// On the export's goroutine, just before the barrier: watch for the
	// barrier's writer lock to be pending, which makes TryRLock fail.
	tr.beforeBarrier = func() {
		go func() {
			for {
				select {
				case <-exportDone:
					return
				default:
				}
				if !tr.intake.TryRLock() {
					close(barrierPending)
					return
				}
				tr.intake.RUnlock()
				runtime.Gosched()
			}
		}()
	}
	// On the ingesting goroutine, after its reports, before its append.
	tr.afterReports = func() {
		go func() {
			exported = tr.ExportState(math.MaxInt64)
			close(exportDone)
		}()
		select {
		case <-exportDone:
			t.Error("ExportState returned while a batch it exported was not yet archived")
		case <-barrierPending:
		}
	}
	gap := []jaccard.Coefficient{
		{Tags: tagset.New(3, 4), J: 0.75, CN: 1},
		{Tags: tagset.New(1, 2), J: 0.5, CN: 6}, // an upgrade of first
	}
	tr.Execute(coeffBatchTuple(1, gap...), nil)
	<-exportDone

	if appendedAfterExport {
		t.Error("the batch was appended after ExportState returned")
	}
	archived := map[tagset.Key]jaccard.Coefficient{}
	for _, call := range arch.calls {
		for _, c := range call.coeffs {
			archived[c.Tags.Key()] = c
		}
	}
	if len(exported.Periods) != 1 || len(exported.Periods[0].Coeffs) != 2 {
		t.Fatalf("export = %+v, want period 1 with the gap batch's two pairs", exported.Periods)
	}
	for _, c := range exported.Periods[0].Coeffs {
		if got, ok := archived[c.Tags.Key()]; !ok || !reflect.DeepEqual(got, c) {
			t.Errorf("exported %+v, archived %+v (ok=%v)", c, got, ok)
		}
	}
}
