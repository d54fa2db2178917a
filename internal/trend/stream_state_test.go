package trend

import (
	"reflect"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/tagset"
)

// cutBatch is one period's reports for the pairs {2i, 2i+1}, i < n, with J
// varying by pair and period so that every observation moves a predictor.
func cutBatch(n int, period int64) []jaccard.Coefficient {
	cs := make([]jaccard.Coefficient, n)
	for i := range cs {
		a := tagset.Tag(2 * i)
		cs[i] = coeff(float64((i+int(period))%5)/4, 5, a, a+1)
	}
	return cs
}

// TestExportCutHoldsLaterPeriods forces the interleaving a checkpoint's
// cut must survive: between the cut read and the export, the detector is fed
// period cut+1 for predictors that have observed the cut period. A
// one-period rollback cannot undo that, so the export must not see it: the
// feed waits at the paused intake until the export is done, and the
// export equals one taken before the feed. Reading the cut and then
// exporting without the pause lets the feed in first, and the export then
// holds the cut period's observation in every predictor it rolled back.
func TestExportCutHoldsLaterPeriods(t *testing.T) {
	const pairs, cut = 50, 3
	s := mustStream(t, StreamConfig{Alpha: 0.5, MinSupport: 1, Shards: 4})
	for p := int64(1); p <= cut; p++ {
		s.ObserveBatch(p, cutBatch(pairs, p))
	}
	want := s.ExportState(cut)
	if len(want.Predictors) != pairs || want.Predictors[0].Period != cut-1 {
		t.Fatalf("reference export: %d predictors, first at period %d; want %d rolled back to %d",
			len(want.Predictors), want.Predictors[0].Period, pairs, cut-1)
	}

	paused := make(chan struct{})
	s.onPaused = func() { close(paused) }
	fed := make(chan struct{})
	got := s.ExportCut(func() int64 {
		go func() {
			s.ObserveBatch(cut+1, cutBatch(pairs, cut+1))
			close(fed)
		}()
		select { // the feed either waits at the intake or has gone through
		case <-paused:
		case <-fed:
		}
		return cut
	}, nil)
	<-fed
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("export cut at %d holds period %d:\n got %+v\nwant %+v", cut, cut+1, got.Predictors, want.Predictors)
	}
	if p, _ := s.Predictor(tagset.New(0, 1).Key()); p.LastPeriod != cut+1 || p.Seen != cut+1 {
		t.Fatalf("the held feed was lost: predictor %+v", p)
	}
}
