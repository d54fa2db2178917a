package server

// The /stats route and its payload.

import (
	"net/http"
	"strconv"

	"repro/internal/core"
)

// StatsResponse is the /stats payload. Only the head field is rendered per
// request; the embedded remainder is encoded once per snapshot and served
// from the rendered snapshot until the refresh loop swaps a new one in.
type StatsResponse struct {
	// SnapshotAgeMS is how old the served snapshot is (milliseconds since
	// its consistent Tracker pass, monotonic clock). Under CPU saturation
	// the refresh loop can stall on operator locks; this surfaces it.
	SnapshotAgeMS int64 `json:"snapshot_age_ms"`

	statsBody
}

// statsBody is the remainder of the /stats payload — everything that only
// changes when the cached snapshot does. The snapshot's statistics carry
// their own field names (core.Stats); nothing is copied here.
type statsBody struct {
	// RSSBytes is the process resident set size (0 on platforms without
	// /proc), sampled when the snapshot was taken: as old as every other
	// field here, at most Config.Refresh.
	RSSBytes int64 `json:"rss_bytes"`

	core.Stats
}

// handleStats renders the one per-request field (the snapshot's age) and
// splices the rendered snapshot's encoding of the remainder in behind it.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cur := s.cur.Load()
	static := cur.body(bodyKey{route: "/stats"}, func() interface{} { return statsBody{cur.rss, cur.snap.Stats} })
	var buf [48]byte
	head := append(buf[:0], `{"snapshot_age_ms":`...)
	head = strconv.AppendInt(head, s.now().Sub(cur.snap.TakenAt).Milliseconds(), 10)
	head = append(head, ',')
	writeBody(w, head)
	w.Write(static[1:]) //nolint:errcheck // static's own "{" is the head's
}
