package server

// The /history routes, served from the archive directory's segments.

import (
	"net/http"
	"strconv"

	"repro/internal/archive"
	"repro/internal/jaccard"
	"repro/internal/tagset"
	"repro/internal/trend"
)

// history returns the archive reader, writing the shared 404 when the
// service runs without one.
func (s *Server) history(w http.ResponseWriter) *archive.Reader {
	if s.cfg.History == nil {
		httpError(w, http.StatusNotFound, "archive disabled (core.Config.ArchiveDir)")
	}
	return s.cfg.History
}

// historyCoefficients renders archived coefficients. Unlike the live
// path it uses the placeholder-tolerant Names: a segment written by a
// previous process (or after the last checkpoint) can reference tags the
// rebuilt dictionary has not re-interned yet, and a history query must
// render them, not panic.
func (s *Server) historyCoefficients(in []jaccard.Coefficient) []Coefficient {
	out := make([]Coefficient, len(in))
	for i, c := range in {
		out[i] = Coefficient{Tags: s.dict.Names(c.Tags), J: c.J, CN: c.CN}
	}
	return out
}

// HistoryPeriodsResponse is the /history/periods payload: every reporting
// period with a segment on disk, ascending — a superset of the retained
// in-memory periods, surviving both retention pruning and restarts.
type HistoryPeriodsResponse struct {
	Periods []int64 `json:"periods"`
	Count   int     `json:"count"`
}

func (s *Server) handleHistoryPeriods(w http.ResponseWriter, r *http.Request) {
	rd := s.history(w)
	if rd == nil {
		return
	}
	periods, err := rd.Periods()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, HistoryPeriodsResponse{Periods: periods, Count: len(periods)})
}

// HistoryTopKResponse is the /history/topk payload: one archived period's
// top coefficients, decoded from its segment file. Torn reports a tail
// lost to a crash before it was flushed; the coefficients before the tear
// are served regardless. TrendEvents counts the period's archived trend
// deviations.
type HistoryTopKResponse struct {
	Period      int64         `json:"period"`
	K           int           `json:"k"`
	Torn        bool          `json:"torn,omitempty"`
	TrendEvents int           `json:"trend_events"`
	Top         []Coefficient `json:"top"`
}

func (s *Server) handleHistoryTopK(w http.ResponseWriter, r *http.Request) {
	rd := s.history(w)
	if rd == nil {
		return
	}
	q := r.URL.Query()
	period, err := strconv.ParseInt(q.Get("period"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "period must be an integer")
		return
	}
	k, ok := queryK(w, q)
	if !ok {
		return
	}
	seg, err := rd.Segment(period)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if seg == nil {
		httpError(w, http.StatusNotFound, "no archived segment for period")
		return
	}
	top := seg.Coeffs
	if len(top) > k {
		top = top[:k]
	}
	writeJSON(w, http.StatusOK, HistoryTopKResponse{
		Period:      period,
		K:           k,
		Torn:        seg.Torn,
		TrendEvents: len(seg.Trends),
		Top:         s.historyCoefficients(top),
	})
}

// HistoryPairResponse is the /history/pairs payload: the archived
// coefficient of one pair, from the requested period or — without
// ?period= — the newest archived period that reported it.
type HistoryPairResponse struct {
	Tags   []string `json:"tags"`
	J      float64  `json:"j"`
	CN     int64    `json:"cn"`
	Period int64    `json:"period"`
}

func (s *Server) handleHistoryPair(w http.ResponseWriter, r *http.Request) {
	rd := s.history(w)
	if rd == nil {
		return
	}
	a, okA := s.dict.Lookup(r.PathValue("tagA"))
	b, okB := s.dict.Lookup(r.PathValue("tagB"))
	if !okA || !okB {
		httpError(w, http.StatusNotFound, "unknown tag")
		return
	}
	set := tagset.New(a, b)
	if set.Len() != 2 {
		httpError(w, http.StatusBadRequest, "tags must differ")
		return
	}

	var (
		c         jaccard.Coefficient
		period    int64
		ok        bool
		truncated bool
	)
	if v := r.URL.Query().Get("period"); v != "" {
		p, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "period must be an integer")
			return
		}
		seg, err := rd.Segment(p)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if seg != nil {
			c, ok = seg.Coefficient(set.Key())
			period = p
		}
	} else {
		var err error
		c, period, ok, truncated, err = rd.LookupPair(set.Key(), s.cfg.HistoryPairScan)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	if !ok {
		// truncated distinguishes "never archived" (false) from "not in
		// the newest HistoryPairScan periods; older ones were not
		// scanned" (true) — without it, a pair older than the scan bound
		// would 404 exactly like a pair that never existed.
		writeJSON(w, http.StatusNotFound, map[string]interface{}{
			"error":     "no archived coefficient for pair",
			"truncated": truncated,
		})
		return
	}
	writeJSON(w, http.StatusOK, HistoryPairResponse{Tags: s.dict.Names(c.Tags), J: c.J, CN: c.CN, Period: period})
}

// HistoryTrendsResponse is the /history/trends payload: one archived
// period's scored trend deviations, ranked by descending score, decoded
// from the same segments /history/topk serves. It answers for any
// archived period — including ones whose events predate this process —
// regardless of whether the live pipeline runs with trend detection.
type HistoryTrendsResponse struct {
	Period      int64        `json:"period"`
	K           int          `json:"k"`
	Torn        bool         `json:"torn,omitempty"`
	TrendEvents int          `json:"trend_events"` // total archived for the period
	Top         []TrendEvent `json:"top"`
}

func (s *Server) handleHistoryTrends(w http.ResponseWriter, r *http.Request) {
	rd := s.history(w)
	if rd == nil {
		return
	}
	q := r.URL.Query()
	period, err := strconv.ParseInt(q.Get("period"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "period must be an integer")
		return
	}
	k, ok := queryK(w, q)
	if !ok {
		return
	}
	seg, err := rd.Segment(period)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if seg == nil {
		httpError(w, http.StatusNotFound, "no archived segment for period")
		return
	}
	top := seg.Trends
	if len(top) > k {
		top = top[:k]
	}
	resp := HistoryTrendsResponse{
		Period:      period,
		K:           k,
		Torn:        seg.Torn,
		TrendEvents: len(seg.Trends),
		Top:         make([]TrendEvent, len(top)),
	}
	for i, e := range top {
		resp.Top[i] = s.historyTrendEvent(e)
	}
	writeJSON(w, http.StatusOK, resp)
}

// historyTrendEvent renders an archived trend event. Like
// historyCoefficients it uses the placeholder-tolerant Names: archived
// events can reference tags the rebuilt dictionary has not re-interned.
func (s *Server) historyTrendEvent(e trend.Event) TrendEvent {
	return TrendEvent{
		Tags:      s.dict.Names(e.Tags),
		Period:    e.Period,
		Predicted: e.Predicted,
		Observed:  e.Observed,
		Score:     e.Score,
		Rising:    e.Rising,
		CN:        e.CN,
	}
}
