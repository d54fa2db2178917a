package server

// The flight-recorder surface: the stall watchdog's probes and the
// /debug/traces, /debug/traces/{id} and /debug/events endpoints. The
// debug endpoints answer 404 without a configured flight recorder; the
// watchdog runs regardless (its verdict reaches /healthz and the
// tagcorr_watchdog_* families either way).

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/telemetry"
)

// checkpointOverdueAfter: the checkpoint_overdue verdict fires when an
// archiving pipeline has not completed a checkpoint for this long while
// running.
const checkpointOverdueAfter = 2 * time.Minute

// pinnedWindow is the shortest interval over which the mailbox_pinned probe
// judges document progress (the default watchdog tick is twice as long).
const pinnedWindow = 500 * time.Millisecond

// watchdogChecks builds the standard stall probes over the pipeline's
// existing counters. Every probe is cheap (atomic loads, the cached
// snapshot) and runs on the watchdog goroutine.
func (s *Server) watchdogChecks() []flight.Check {
	return []flight.Check{
		{
			Name: "snapshot_stale",
			Probe: func() (bool, string) {
				if !s.handle.Running() {
					return false, ""
				}
				snap := s.Snapshot()
				if snap == nil {
					return false, ""
				}
				age := time.Since(snap.TakenAt)
				if age <= s.cfg.SnapshotStaleAfter {
					return false, ""
				}
				return true, fmt.Sprintf("snapshot %s old (threshold %s)", age.Round(time.Millisecond), s.cfg.SnapshotStaleAfter)
			},
		},
		pinnedCheck(s.pipe.SpoutProgress, s.handle.Running),
		{
			Name: "checkpoint_overdue",
			Probe: func() (bool, string) {
				if !s.pipe.Archiving() || !s.handle.Running() {
					return false, ""
				}
				age, ok := s.pipe.LastCheckpointAge()
				if !ok {
					// No checkpoint yet: measure from server start so a
					// pipeline that never checkpoints still trips.
					age = time.Since(s.started)
				}
				if age <= checkpointOverdueAfter {
					return false, ""
				}
				return true, fmt.Sprintf("last checkpoint %s ago (threshold %s)", age.Round(time.Second), checkpointOverdueAfter)
			},
		},
		{
			Name: "archive_error",
			Probe: func() (bool, string) {
				if err := s.pipe.ArchiveErr(); err != nil {
					return true, err.Error()
				}
				return false, ""
			},
		},
	}
}

// pinnedCheck is the mailbox_pinned probe over two live counters: the
// spouts parked on the max-spout-pending cap right now, and the
// Disseminator's tuple intake. The verdict is "a spout is parked and the
// intake has not moved since the last judged tick" — the signature of a
// wedged consumer, as opposed to ordinary backpressure, where the spout
// parks and wakes while documents still advance between ticks. Both
// counters are read live (the cached snapshot's document count can be
// older), and progress is judged over pinnedWindow at least: a tick sooner
// keeps the last verdict, because over a few milliseconds a saturated
// pipeline's scheduling gaps look like no progress too. The first tick only
// seeds the intake count.
func pinnedCheck(progress func() (parked, recv int64), running func() bool) flight.Check {
	var mu sync.Mutex
	var prevRecv int64
	var prevAt time.Time
	var pinned bool
	var detail string
	return flight.Check{
		Name: "mailbox_pinned",
		Probe: func() (bool, string) {
			parked, recv := progress()
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			switch {
			case prevAt.IsZero():
			case now.Sub(prevAt) < pinnedWindow:
				return pinned, detail
			default:
				pinned = running() && parked > 0 && recv == prevRecv
				detail = ""
				if pinned {
					detail = fmt.Sprintf("spout parked, disseminator intake pinned at %d tuples for %s",
						recv, now.Sub(prevAt).Round(time.Millisecond))
				}
			}
			prevRecv, prevAt = recv, now
			return pinned, detail
		},
	}
}

// debugEvent is the /debug/events JSON rendering of one flight event.
type debugEvent struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	AtMS int64  `json:"at_ms"` // monotonic ms since process start
	Wall string `json:"wall"`  // approximate wall-clock time, RFC3339
	Msg  string `json:"msg"`
}

func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	rec := s.cfg.Flight
	if rec == nil {
		httpError(w, http.StatusNotFound, "no flight recorder configured")
		return
	}
	events := rec.Events()
	out := make([]debugEvent, len(events))
	for i, e := range events {
		out[i] = debugEvent{
			Seq:  e.Seq,
			Kind: e.Kind,
			AtMS: e.At / 1e6,
			Wall: telemetry.Wall(e.At).Format(time.RFC3339Nano),
			Msg:  e.Msg,
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"count":  len(out),
		"events": out,
	})
}

func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	rec := s.cfg.Flight
	if rec == nil {
		httpError(w, http.StatusNotFound, "no flight recorder configured")
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	st := rec.Snapshot()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"docs_seen":       st.DocsSeen,
		"traces_started":  st.TracesStarted,
		"retained_sample": st.KeptSample,
		"retained_slow":   st.KeptSlow,
		"discarded":       st.Discarded,
		"active":          st.Active,
		"retained":        st.Retained,
		"traces":          rec.Traces(limit),
	})
}

// debugSpan renders one span with both raw monotonic stamps (exact,
// comparable across spans) and offsets from the trace's ingest stamp.
type debugSpan struct {
	Stage   string `json:"stage"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	OffsetU int64  `json:"offset_us"` // start - ingest
	DurU    int64  `json:"dur_us"`    // end - start
	Count   int    `json:"count"`
}

func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.cfg.Flight
	if rec == nil {
		httpError(w, http.StatusNotFound, "no flight recorder configured")
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil || id == 0 {
		httpError(w, http.StatusBadRequest, "trace id must be a positive integer")
		return
	}
	t, ok := rec.TraceByID(id)
	if !ok {
		httpError(w, http.StatusNotFound, "trace not found (discarded, overwritten or never sampled)")
		return
	}
	spans := make([]debugSpan, len(t.Spans))
	for i, sp := range t.Spans {
		spans[i] = debugSpan{
			Stage:   sp.Stage,
			StartNS: sp.Start,
			EndNS:   sp.End,
			OffsetU: (sp.Start - t.Ingest) / 1e3,
			DurU:    (sp.End - sp.Start) / 1e3,
			Count:   sp.Count,
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"id":          t.ID,
		"sampled":     t.Sampled,
		"retained":    t.Retained,
		"complete":    t.Complete(),
		"ingest_ns":   t.Ingest,
		"duration_us": t.Duration() / 1e3,
		"spans":       spans,
	})
}
