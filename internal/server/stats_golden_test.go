package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/operators"
	"repro/internal/trend"
)

// goldenSnapshot is a hand-built snapshot with a distinct value in every
// field /stats renders, so a dropped, renamed or reordered field shows in
// the body.
func goldenSnapshot(withTrends bool) *core.Snapshot {
	st := core.Stats{
		DocsProcessed:     101,
		DocsBeforeInstall: 102,
		NotifiedDocs:      103,
		Notifications:     104,
		UncoveredDocs:     105,

		Communication: 1.25,
		LoadGini:      0.375,
		PerCalculator: []int64{7, 0, 9},

		Epoch:              3,
		RepartitionPending: true,
		Repartitions:       11,
		RepartitionsComm:   12,
		RepartitionsLoad:   13,
		RepartitionsBoth:   14,
		SingleAdditions:    15,
		Merges:             16,

		Periods:               []int64{4, 5, 6},
		CoefficientsReceived:  201,
		CoefficientsDuplicate: 202,

		Tracker: operators.TrackerStats{
			Shards: 16, TopKBound: 128,
			Retained: 301, RetainedPeriods: 302, HeapEntries: 303, Rebuilds: 304, PrunedPeriods: 305,
			EvictedLen: 306, EvictedCap: 4096, EvictedHits: 307, EvictedMisses: 308,
			Received: 201, Duplicates: 202, Late: 309,
		},
		TrackerTasks: 4,
		NotifyBatch:  64,

		Checkpoints:       401,
		CheckpointStallMS: 402,
		CheckpointWriteMS: 403,

		ArchiveCompactions:      501,
		ArchiveCompactedPeriods: 502,
		ArchiveAgedOutPeriods:   503,
		ArchiveBytes:            504,

		StageDocPartition:     core.StageLatency{Count: 601, P50MS: 0.5, P99MS: 1.5, MaxMS: 2.5},
		StageDocCoefficient:   core.StageLatency{Count: 602, P50MS: 3.5, P99MS: 4.5, MaxMS: 5.5},
		StageDocTrackerAccept: core.StageLatency{Count: 603, P50MS: 6.5, P99MS: 7.5, MaxMS: 8.5},

		EmittedByComponent:  map[string]int64{"source": 701, "parser": 702},
		ReceivedByComponent: map[string]int64{"parser": 703, "tracker": 704},
	}
	if withTrends {
		st.TrendStats = &trend.StreamStats{
			Shards: 8, TopKBound: 50,
			Tracked: 801, RetainedPeriods: 802, HeapEntries: 803, Rebuilds: 804, PrunedPeriods: 805,
			Scored: 806, Filtered: 807, OutOfOrder: 808, Late: 809, Published: 810, Dropped: 811,
			Subscribers: 2,
		}
	}
	return &core.Snapshot{TakenAt: time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC), Stats: st}
}

// TestStatsGolden holds /stats to committed bytes for a fixed snapshot, RSS
// and clock: field names, their order, the values, the spliced
// snapshot_age_ms head, and trends omitted when the detector is off. The
// golden files were rendered by the field-by-field copy into mirror types
// that core.Stats' own json tags replaced.
func TestStatsGolden(t *testing.T) {
	for _, tc := range []struct {
		golden     string
		withTrends bool
	}{
		{"testdata/stats.golden.json", true},
		{"testdata/stats_notrend.golden.json", false},
	} {
		snap := goldenSnapshot(tc.withTrends)
		srv := &Server{now: func() time.Time { return snap.TakenAt.Add(1234 * time.Millisecond) }}
		srv.cur.Store(&rendered{snap: snap, rss: 987654321})
		rec := httptest.NewRecorder()
		srv.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))

		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("/stats differs from %s:\ngot  %s\nwant %s", tc.golden, rec.Body.Bytes(), want)
		}
	}
}
