package server

// The /stats route and its payload.

import (
	"net/http"
	"strconv"

	"repro/internal/core"
)

// StatsResponse is the /stats payload: the full snapshot with tag sets
// rendered to strings. Only the head field is rendered per request; the
// embedded remainder is encoded once per snapshot and served from the
// rendered snapshot until the refresh loop swaps a new one in.
type StatsResponse struct {
	// SnapshotAgeMS is how old the served snapshot is (milliseconds since
	// its consistent Tracker pass, monotonic clock). Under CPU saturation
	// the refresh loop can stall on operator locks; this surfaces it.
	SnapshotAgeMS int64 `json:"snapshot_age_ms"`

	statsStatic
}

// statsStatic is the remainder of the /stats payload — everything that
// only changes when the cached snapshot does.
type statsStatic struct {
	// RSSBytes is the process resident set size (0 on platforms without
	// /proc), sampled when the snapshot was taken: as old as every other
	// field here, at most Config.Refresh.
	RSSBytes int64 `json:"rss_bytes"`

	DocsProcessed     int64 `json:"docs_processed"`
	DocsBeforeInstall int64 `json:"docs_before_install"`
	NotifiedDocs      int64 `json:"notified_docs"`
	Notifications     int64 `json:"notifications"`
	UncoveredDocs     int64 `json:"uncovered_docs"`

	Communication float64 `json:"communication"`
	LoadGini      float64 `json:"load_gini"`
	PerCalculator []int64 `json:"per_calculator"`

	Epoch              int  `json:"epoch"`
	RepartitionPending bool `json:"repartition_pending"`
	Repartitions       int  `json:"repartitions"`
	RepartitionsComm   int  `json:"repartitions_comm"`
	RepartitionsLoad   int  `json:"repartitions_load"`
	RepartitionsBoth   int  `json:"repartitions_both"`
	SingleAdditions    int  `json:"single_additions"`
	Merges             int  `json:"merges"`

	Periods               []int64 `json:"periods"`
	CoefficientsReceived  int64   `json:"coefficients_received"`
	CoefficientsDuplicate int64   `json:"coefficients_duplicate"`

	// TrackerTasks and NotifyBatch are the hot-path fan-out knobs: Tracker
	// operator parallelism and the Disseminator→Calculator notification
	// batch size (0: one tuple per document × Calculator).
	TrackerTasks int `json:"tracker_tasks"`
	NotifyBatch  int `json:"notify_batch"`

	// Checkpoints / CheckpointStallMS / CheckpointWriteMS meter the
	// durability path (0 with archiving off): completed checkpoint writes,
	// the cumulative milliseconds the hot path spent cutting snapshots,
	// and the cumulative milliseconds the background writer spent encoding
	// + fsyncing them. The archive_* fields meter background compaction:
	// compacted files written, raw periods folded into them, periods aged
	// out under the disk budget, and the directory size after the
	// compactor's last pass. These are the fields the cmd/loadgen driver
	// scrapes between query rounds.
	Checkpoints             int64 `json:"checkpoints"`
	CheckpointStallMS       int64 `json:"checkpoint_stall_ms"`
	CheckpointWriteMS       int64 `json:"checkpoint_write_ms"`
	ArchiveCompactions      int64 `json:"archive_compactions"`
	ArchiveCompactedPeriods int64 `json:"archive_compacted_periods"`
	ArchiveAgedOutPeriods   int64 `json:"archive_aged_out_periods"`
	ArchiveBytes            int64 `json:"archive_bytes"`

	// The stage_* objects summarise the end-to-end stage-latency
	// histograms (count, p50/p99/max milliseconds); full bucket detail is
	// on /metrics.
	StageDocPartition     core.StageLatency `json:"stage_doc_partition"`
	StageDocCoefficient   core.StageLatency `json:"stage_doc_coefficient"`
	StageDocTrackerAccept core.StageLatency `json:"stage_doc_tracker_accept"`

	Tracker TrackerStats `json:"tracker"`
	Trends  *TrendStats  `json:"trends,omitempty"`

	EmittedByComponent  map[string]int64 `json:"emitted_by_component"`
	ReceivedByComponent map[string]int64 `json:"received_by_component"`
}

// TrendStats is the /stats rendering of the streaming detector's internal
// structure; present only when the pipeline runs with trend detection.
type TrendStats struct {
	Shards          int   `json:"shards"`
	TopKBound       int   `json:"topk_bound"`
	Tracked         int   `json:"tracked_predictors"`
	RetainedPeriods int   `json:"retained_periods"`
	HeapEntries     int   `json:"heap_entries"`
	Rebuilds        int64 `json:"heap_rebuilds"`
	PrunedPeriods   int64 `json:"pruned_periods"`
	Scored          int64 `json:"events_scored"`
	Filtered        int64 `json:"filtered"`
	OutOfOrder      int64 `json:"out_of_order"`
	Late            int64 `json:"late"`
	Published       int64 `json:"events_published"`
	Dropped         int64 `json:"subscriber_drops"`
	Subscribers     int   `json:"subscribers"`
}

// TrackerStats is the /stats rendering of the Tracker's internal structure:
// shard layout, incremental top-k heaps, retention pruning, evicted LRU.
type TrackerStats struct {
	Shards          int   `json:"shards"`
	TopKBound       int   `json:"topk_bound"`
	Retained        int   `json:"retained_coefficients"`
	RetainedPeriods int   `json:"retained_periods"`
	HeapEntries     int   `json:"heap_entries"`
	Rebuilds        int64 `json:"heap_rebuilds"`
	PrunedPeriods   int64 `json:"pruned_periods"`
	EvictedLen      int   `json:"evicted_pairs"`
	EvictedCap      int   `json:"evicted_pairs_cap"`
	EvictedHits     int64 `json:"evicted_pair_hits"`
	EvictedMisses   int64 `json:"evicted_pair_misses"`
	Late            int64 `json:"late_reports"`
}

// handleStats renders the one per-request field (the snapshot's age) and
// splices the rendered snapshot's encoding of the remainder in behind it.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cur := s.cur.Load()
	static := cur.body(bodyKey{route: "/stats"}, func() interface{} { return buildStatsStatic(cur.snap, cur.rss) })
	var buf [48]byte
	head := append(buf[:0], `{"snapshot_age_ms":`...)
	head = strconv.AppendInt(head, s.now().Sub(cur.snap.TakenAt).Milliseconds(), 10)
	head = append(head, ',')
	writeBody(w, head)
	w.Write(static[1:]) //nolint:errcheck // static's own "{" is the head's
}

func buildStatsStatic(snap *core.Snapshot, rss int64) statsStatic {
	var trends *TrendStats
	if v := snap.Trends; v != nil {
		trends = &TrendStats{
			Shards:          v.Stats.Shards,
			TopKBound:       v.Stats.TopKBound,
			Tracked:         v.Stats.Tracked,
			RetainedPeriods: v.Stats.RetainedPeriods,
			HeapEntries:     v.Stats.HeapEntries,
			Rebuilds:        v.Stats.Rebuilds,
			PrunedPeriods:   v.Stats.PrunedPeriods,
			Scored:          v.Stats.Scored,
			Filtered:        v.Stats.Filtered,
			OutOfOrder:      v.Stats.OutOfOrder,
			Late:            v.Stats.Late,
			Published:       v.Stats.Published,
			Dropped:         v.Stats.Dropped,
			Subscribers:     v.Stats.Subscribers,
		}
	}
	return statsStatic{
		RSSBytes: rss,

		DocsProcessed:     snap.DocsProcessed,
		DocsBeforeInstall: snap.DocsBeforeInstall,
		NotifiedDocs:      snap.NotifiedDocs,
		Notifications:     snap.Notifications,
		UncoveredDocs:     snap.UncoveredDocs,

		Communication: snap.Communication,
		LoadGini:      snap.LoadGini,
		PerCalculator: snap.PerCalculator,

		Epoch:              snap.Epoch,
		RepartitionPending: snap.RepartitionPending,
		Repartitions:       snap.Repartitions,
		RepartitionsComm:   snap.RepartitionsComm,
		RepartitionsLoad:   snap.RepartitionsLoad,
		RepartitionsBoth:   snap.RepartitionsBoth,
		SingleAdditions:    snap.SingleAdditions,
		Merges:             snap.Merges,

		Periods:               snap.Periods,
		CoefficientsReceived:  snap.CoefficientsReceived,
		CoefficientsDuplicate: snap.CoefficientsDuplicate,

		TrackerTasks: snap.TrackerTasks,
		NotifyBatch:  snap.NotifyBatch,

		Checkpoints:             snap.Checkpoints,
		CheckpointStallMS:       snap.CheckpointStallMS,
		CheckpointWriteMS:       snap.CheckpointWriteMS,
		ArchiveCompactions:      snap.ArchiveCompactions,
		ArchiveCompactedPeriods: snap.ArchiveCompactedPeriods,
		ArchiveAgedOutPeriods:   snap.ArchiveAgedOutPeriods,
		ArchiveBytes:            snap.ArchiveBytes,

		StageDocPartition:     snap.StageDocPartition,
		StageDocCoefficient:   snap.StageDocCoefficient,
		StageDocTrackerAccept: snap.StageDocTrackerAccept,

		Tracker: TrackerStats{
			Shards:          snap.Tracker.Shards,
			TopKBound:       snap.Tracker.TopKBound,
			Retained:        snap.Tracker.Retained,
			RetainedPeriods: snap.Tracker.RetainedPeriods,
			HeapEntries:     snap.Tracker.HeapEntries,
			Rebuilds:        snap.Tracker.Rebuilds,
			PrunedPeriods:   snap.Tracker.PrunedPeriods,
			EvictedLen:      snap.Tracker.EvictedLen,
			EvictedCap:      snap.Tracker.EvictedCap,
			EvictedHits:     snap.Tracker.EvictedHits,
			EvictedMisses:   snap.Tracker.EvictedMisses,
			Late:            snap.Tracker.Late,
		},
		Trends: trends,

		EmittedByComponent:  snap.EmittedByComponent,
		ReceivedByComponent: snap.ReceivedByComponent,
	}
}
