package server

// The /healthz and /readyz probes.

import (
	"net/http"
	"time"
)

// HealthResponse is the /healthz payload. Watchdog carries the stall
// watchdog's current verdict ("ok", or "stalled: …" naming the tripped
// checks) and UptimeMS the serving layer's age, so a probe can tell
// "just started" from "up but wedged".
type HealthResponse struct {
	Status        string `json:"status"`
	Running       bool   `json:"running"`
	DocsProcessed int64  `json:"docs_processed"`
	UptimeMS      int64  `json:"uptime_ms"`
	Watchdog      string `json:"watchdog"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Running:       s.handle.Running(),
		DocsProcessed: s.Snapshot().DocsProcessed,
		UptimeMS:      time.Since(s.started).Milliseconds(),
		Watchdog:      s.watchdog.Verdict(),
	})
}

// ReadyResponse is the /readyz payload. Unlike /healthz (liveness: the
// process is up and serving), readiness reports whether the pipeline has
// actually started consuming the stream — the condition a load driver or
// orchestrator waits on before aiming traffic at the service. Ready once
// the first document has been processed; a drained run stays ready (its
// final state is still being served).
type ReadyResponse struct {
	Ready         bool   `json:"ready"`
	Running       bool   `json:"running"`
	DocsProcessed int64  `json:"docs_processed"`
	UptimeMS      int64  `json:"uptime_ms"`
	Watchdog      string `json:"watchdog"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	// Consult the Tracker-consistent cached snapshot, but fall back to the
	// live Disseminator counters: at startup the first refresh can precede
	// the first processed document, and readiness should flip as soon as
	// traffic flows rather than one cache interval later.
	docs := s.Snapshot().DocsProcessed
	if docs == 0 {
		docs = s.pipe.Snapshot(1).DocsProcessed
	}
	resp := ReadyResponse{
		Ready:         docs > 0,
		Running:       s.handle.Running(),
		DocsProcessed: docs,
		UptimeMS:      time.Since(s.started).Milliseconds(),
		Watchdog:      s.watchdog.Verdict(),
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
