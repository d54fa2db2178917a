package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/telemetry"
	"repro/internal/twitgen"
)

// scalarFamilies maps every scalar /metrics series to the core.Stats field
// it is read from. onStats is false for the one field /stats does not name.
var scalarFamilies = []struct {
	family  string
	labels  map[string]string
	field   func(*core.Stats) float64
	onStats bool
}{
	{"tagcorr_dissem_docs_total", nil, func(s *core.Stats) float64 { return float64(s.DocsProcessed) }, true},
	{"tagcorr_dissem_notifications_total", nil, func(s *core.Stats) float64 { return float64(s.Notifications) }, true},
	{"tagcorr_dissem_notified_docs_total", nil, func(s *core.Stats) float64 { return float64(s.NotifiedDocs) }, true},
	{"tagcorr_dissem_uncovered_docs_total", nil, func(s *core.Stats) float64 { return float64(s.UncoveredDocs) }, true},
	{"tagcorr_dissem_single_additions_total", nil, func(s *core.Stats) float64 { return float64(s.SingleAdditions) }, true},
	{"tagcorr_dissem_repartitions_total", map[string]string{"cause": "comm"}, func(s *core.Stats) float64 { return float64(s.RepartitionsComm) }, true},
	{"tagcorr_dissem_repartitions_total", map[string]string{"cause": "load"}, func(s *core.Stats) float64 { return float64(s.RepartitionsLoad) }, true},
	{"tagcorr_dissem_repartitions_total", map[string]string{"cause": "both"}, func(s *core.Stats) float64 { return float64(s.RepartitionsBoth) }, true},
	{"tagcorr_dissem_communication", nil, func(s *core.Stats) float64 { return s.Communication }, true},
	{"tagcorr_dissem_load_gini", nil, func(s *core.Stats) float64 { return s.LoadGini }, true},

	{"tagcorr_tracker_coefficients_received_total", nil, func(s *core.Stats) float64 { return float64(s.CoefficientsReceived) }, true},
	{"tagcorr_tracker_coefficients_duplicate_total", nil, func(s *core.Stats) float64 { return float64(s.CoefficientsDuplicate) }, true},
	{"tagcorr_tracker_retained_coefficients", nil, func(s *core.Stats) float64 { return float64(s.Tracker.Retained) }, true},
	{"tagcorr_tracker_heap_entries", nil, func(s *core.Stats) float64 { return float64(s.Tracker.HeapEntries) }, true},
	{"tagcorr_tracker_heap_rebuilds_total", nil, func(s *core.Stats) float64 { return float64(s.Tracker.Rebuilds) }, true},
	{"tagcorr_tracker_retained_periods", nil, func(s *core.Stats) float64 { return float64(s.Tracker.RetainedPeriods) }, true},
	{"tagcorr_tracker_pruned_periods_total", nil, func(s *core.Stats) float64 { return float64(s.Tracker.PrunedPeriods) }, true},
	{"tagcorr_tracker_evicted_lru_entries", nil, func(s *core.Stats) float64 { return float64(s.Tracker.EvictedLen) }, true},
	{"tagcorr_tracker_evicted_lru_hits_total", nil, func(s *core.Stats) float64 { return float64(s.Tracker.EvictedHits) }, true},
	{"tagcorr_tracker_evicted_lru_misses_total", nil, func(s *core.Stats) float64 { return float64(s.Tracker.EvictedMisses) }, true},

	{"tagcorr_archive_checkpoints_total", nil, func(s *core.Stats) float64 { return float64(s.Checkpoints) }, true},
	{"tagcorr_archive_compactions_total", nil, func(s *core.Stats) float64 { return float64(s.ArchiveCompactions) }, true},
	{"tagcorr_archive_compacted_periods_total", nil, func(s *core.Stats) float64 { return float64(s.ArchiveCompactedPeriods) }, true},
	{"tagcorr_archive_aged_out_periods_total", nil, func(s *core.Stats) float64 { return float64(s.ArchiveAgedOutPeriods) }, true},
	{"tagcorr_archive_aged_out_bytes_total", nil, func(s *core.Stats) float64 { return float64(s.ArchiveAgedOutBytes) }, false},
	{"tagcorr_archive_dir_bytes", nil, func(s *core.Stats) float64 { return float64(s.ArchiveBytes) }, true},

	{"tagcorr_trend_deviations_scored_total", nil, func(s *core.Stats) float64 { return float64(s.TrendStats.Scored) }, true},
	{"tagcorr_trend_filtered_total", nil, func(s *core.Stats) float64 { return float64(s.TrendStats.Filtered) }, true},
	{"tagcorr_trend_published_total", nil, func(s *core.Stats) float64 { return float64(s.TrendStats.Published) }, true},
	{"tagcorr_trend_subscriber_drops_total", nil, func(s *core.Stats) float64 { return float64(s.TrendStats.Dropped) }, true},
	{"tagcorr_trend_subscribers", nil, func(s *core.Stats) float64 { return float64(s.TrendStats.Subscribers) }, true},
	{"tagcorr_trend_tracked_predictors", nil, func(s *core.Stats) float64 { return float64(s.TrendStats.Tracked) }, true},
}

// sampleValue returns the value of the family's series with exactly the
// given labels.
func sampleValue(t *testing.T, fams map[string]*telemetry.Family, family string, labels map[string]string) float64 {
	t.Helper()
	f := fams[family]
	if f == nil {
		t.Fatalf("/metrics has no family %s", family)
	}
	for _, s := range f.Samples {
		if fmt.Sprint(s.Labels) == fmt.Sprint(labels) { // fmt prints maps key-sorted, nil as empty
			return s.Value
		}
	}
	t.Fatalf("/metrics family %s has no series %v", family, labels)
	return 0
}

// TestStatSurfacesAgree drains a trend-on, archived pipeline and requires
// the four statistic surfaces — the /metrics scrape, /stats,
// Pipeline.Snapshot and Result — to report the same value for every scalar
// they share: all four are views of one core.Stats gather.
func TestStatSurfacesAgree(t *testing.T) {
	dict := tagset.NewDictionary()
	gcfg := twitgen.Default()
	gcfg.Seed = 29
	gcfg.TPS = 1000
	gcfg.TaggedFraction = 0.5
	gcfg.Topics = 40
	gcfg.TagsPerTopic = 8
	gen, err := twitgen.New(gcfg, dict)
	if err != nil {
		t.Fatal(err)
	}
	docs := gen.Generate(36000)

	cfg := core.DefaultConfig()
	cfg.K = 4
	cfg.P = 3
	cfg.WindowSpan = stream.Seconds(2)
	cfg.ReportEvery = stream.Seconds(2)
	cfg.StatsEvery = 500
	cfg.KeepPeriods = 2
	cfg.TrackerTopK = 8
	cfg.EvictedPairs = 64
	cfg.NoSeries = true
	cfg.Trend = true
	cfg.TrendMinSupport = 2
	cfg.ArchiveDir = t.TempDir()
	cfg.ArchiveDict = dict

	// The compactor passes on its own clock: hold the last sixth of the
	// stream back until a pass has folded the sealed periods, so its
	// counters are compared on non-zero values. Giving up only fails the
	// non-zero check below.
	var pipe *core.Pipeline
	fed, giveUp := 0, time.Now().Add(time.Minute)
	src := core.SliceSource(docs)
	pipe, err = core.NewPipeline(cfg, func() (stream.Document, bool) {
		if fed++; fed == len(docs)*5/6 {
			for pipe.CompactorStats().Compactions == 0 && time.Now().Before(giveUp) {
				time.Sleep(5 * time.Millisecond)
			}
		}
		return src()
	})
	if err != nil {
		t.Fatal(err)
	}
	h := pipe.Start()
	<-h.Done()
	// One LRU miss before the Result is gathered, so the lookup counters
	// are compared on a non-zero value.
	if _, _, ok := pipe.Tracker().Lookup(tagset.New(dict.Intern("never-a"), dict.Intern("never-b")).Key()); ok {
		t.Fatal("a pair that was never reported was found")
	}
	// Raising the heap bound past entries the heaps excluded rebuilds them,
	// so the rebuild counter is compared on a non-zero value; the server's
	// own EnsureTopKBound(20) is then a no-op.
	pipe.Tracker().EnsureTopKBound(20)
	res := h.Wait()
	if err := pipe.ArchiveErr(); err != nil {
		t.Fatalf("archive error: %v", err)
	}

	srv := New(pipe, h, dict, Config{TopK: 20, Refresh: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	var stats StatsResponse
	if err := json.Unmarshal(serve(t, srv.Handler(), "/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	snap := pipe.Snapshot(20)
	fams := scrape(t, ts.Client(), ts.URL)

	// The run must have exercised what is compared.
	for what, n := range map[string]int64{
		"docs":                  res.DocsProcessed,
		"notifications":         res.Notifications,
		"uncovered docs":        res.UncoveredDocs,
		"coefficients received": res.CoefficientsReceived,
		"pruned periods":        res.Stats.Tracker.PrunedPeriods,
		"heap rebuilds":         res.Stats.Tracker.Rebuilds,
		"evicted pairs":         int64(res.Stats.Tracker.EvictedLen),
		"LRU misses":            res.Stats.Tracker.EvictedMisses,
		"checkpoints":           res.Checkpoints,
		"compactions":           res.ArchiveCompactions,
		"trend scored":          res.TrendStats.Scored,
	} {
		if n == 0 {
			t.Errorf("the drained run reports 0 %s; the comparison below would be vacuous", what)
		}
	}
	surfaces := []struct {
		name string
		st   *core.Stats
	}{
		{"/stats", &stats.Stats},
		{"Snapshot", &snap.Stats},
		{"Result", &res.Stats},
	}
	for _, row := range scalarFamilies {
		got := sampleValue(t, fams, row.family, row.labels)
		for _, sf := range surfaces {
			if !row.onStats && sf.st == &stats.Stats {
				continue
			}
			if want := row.field(sf.st); got != want {
				t.Errorf("%s%v = %v on /metrics, %v in %s", row.family, row.labels, got, want, sf.name)
			}
		}
	}
	for _, sf := range surfaces {
		for family, byComp := range map[string]map[string]int64{
			"tagcorr_storm_tuples_emitted_total":  sf.st.EmittedByComponent,
			"tagcorr_storm_tuples_received_total": sf.st.ReceivedByComponent,
		} {
			for _, s := range fams[family].Samples {
				if want := float64(byComp[s.Labels["component"]]); s.Value != want {
					t.Errorf("%s%v = %v on /metrics, %v in %s", family, s.Labels, s.Value, want, sf.name)
				}
			}
			if len(fams[family].Samples) < len(byComp) {
				t.Errorf("%s has %d series, %s names %d components", family, len(fams[family].Samples), sf.name, len(byComp))
			}
		}
		emitted, _ := res.Storm.Totals()
		if got, want := emitted["disseminator"], sf.st.EmittedByComponent["disseminator"]; got != want {
			t.Errorf("Result.Storm disseminator emitted = %d, %d in %s", got, want, sf.name)
		}
	}
}
