package server

// The trend routes: /trends from the rendered snapshot, the predictor
// lookup from the detector directly, and the /events SSE feed.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/tagset"
	"repro/internal/trend"
)

// TrendEvent is the JSON rendering of one scored trend deviation, shared by
// /trends and the /events SSE feed.
type TrendEvent struct {
	Tags      []string `json:"tags"`
	Period    int64    `json:"period"`
	Predicted float64  `json:"predicted"`
	Observed  float64  `json:"observed"`
	Score     float64  `json:"score"`
	Rising    bool     `json:"rising"`
	CN        int64    `json:"cn"`
}

func (s *Server) trendEvent(e trend.Event) TrendEvent {
	return TrendEvent{
		Tags:      s.dict.Strings(e.Tags),
		Period:    e.Period,
		Predicted: e.Predicted,
		Observed:  e.Observed,
		Score:     e.Score,
		Rising:    e.Rising,
		CN:        e.CN,
	}
}

// TrendsResponse is the /trends payload: the top deviations of the newest
// scored period, from the cached snapshot.
type TrendsResponse struct {
	LatestPeriod int64        `json:"latest_period"`
	K            int          `json:"k"`
	Top          []TrendEvent `json:"top"`
	Tracked      int          `json:"tracked"`
	Scored       int64        `json:"events_scored"`
	Published    int64        `json:"events_published"`
	Threshold    float64      `json:"threshold"`
}

// trendDetector returns the pipeline's streaming detector, writing the
// 404 the trend endpoints share when the pipeline runs without one.
func (s *Server) trendDetector(w http.ResponseWriter) *trend.Stream {
	det := s.pipe.Trends()
	if det == nil {
		httpError(w, http.StatusNotFound, "trend detection disabled (core.Config.Trend)")
	}
	return det
}

func (s *Server) handleTrends(w http.ResponseWriter, r *http.Request) {
	det := s.trendDetector(w)
	if det == nil {
		return
	}
	k, ok := queryK(w, r.URL.Query())
	if !ok {
		return
	}
	// The cached view holds at most the detector's maintained heap bound;
	// clamp K so the response never claims a larger ranking than it can
	// carry.
	k = min(k, s.cfg.TopK, det.Config().TopK)
	cur := s.cur.Load()
	writeBody(w, cur.body(bodyKey{route: "/trends", k: k}, func() interface{} { return s.trendsResponse(cur.snap, det, k) }))
}

// trendsResponse builds the /trends payload of one snapshot; k is already
// clamped.
func (s *Server) trendsResponse(snap *core.Snapshot, det *trend.Stream, k int) TrendsResponse {
	v := snap.Trends
	top := v.Top
	if len(top) > k {
		top = top[:k]
	}
	resp := TrendsResponse{
		LatestPeriod: v.LatestPeriod,
		K:            k,
		Top:          make([]TrendEvent, len(top)),
		Tracked:      snap.TrendStats.Tracked,
		Scored:       snap.TrendStats.Scored,
		Published:    snap.TrendStats.Published,
		Threshold:    det.Config().Threshold,
	}
	for i, e := range top {
		resp.Top[i] = s.trendEvent(e)
	}
	return resp
}

// TrendLookupResponse is the /trends/{tags...} payload: the live EWMA
// predictor of one tagset, read shard-directly (fresher than the cache).
type TrendLookupResponse struct {
	Tags        []string `json:"tags"`
	Expectation float64  `json:"expectation"`
	Base        float64  `json:"base"`
	LastPeriod  int64    `json:"last_period"`
	Seen        int      `json:"seen"`
}

func (s *Server) handleTrendLookup(w http.ResponseWriter, r *http.Request) {
	det := s.trendDetector(w)
	if det == nil {
		return
	}
	names := append([]string{r.PathValue("tagA")}, strings.Split(r.PathValue("rest"), "/")...)
	ids := make([]tagset.Tag, len(names))
	for i, name := range names {
		id, ok := s.dict.Lookup(name)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown tag")
			return
		}
		ids[i] = id
	}
	set := tagset.New(ids...)
	if set.Len() != len(names) || set.Len() < 2 {
		httpError(w, http.StatusBadRequest, "need 2 or more distinct tags")
		return
	}
	p, ok := det.Predictor(set.Key())
	if !ok {
		httpError(w, http.StatusNotFound, "no predictor for tagset")
		return
	}
	writeJSON(w, http.StatusOK, TrendLookupResponse{
		Tags:        s.dict.Strings(set),
		Expectation: p.Expectation,
		Base:        p.Base,
		LastPeriod:  p.LastPeriod,
		Seen:        p.Seen,
	})
}

// handleEvents is the SSE feed: every trend event scored at or above the
// detector's threshold is pushed as an `event: trend` frame while the run
// streams. When the run drains, buffered events are flushed and the stream
// ends with an `event: end` frame; a client disconnect ends it immediately.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	det := s.trendDetector(w)
	if det == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, cancel := det.Subscribe(256)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": tagcorrd trend events\n\n")
	fl.Flush()

	writeEvent := func(e trend.Event) bool {
		data, err := json.Marshal(s.trendEvent(e))
		if err != nil {
			return false
		}
		_, err = fmt.Fprintf(w, "event: trend\ndata: %s\n\n", data)
		fl.Flush()
		return err == nil
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e := <-ch:
			if !writeEvent(e) {
				return
			}
		case <-s.handle.Done():
			// Drained: no further events can be scored. Wait for the
			// detector's broker goroutine to fan out everything already
			// published, then flush what is buffered and close the stream.
			det.Sync()
			for {
				select {
				case e := <-ch:
					if !writeEvent(e) {
						return
					}
				default:
					fmt.Fprint(w, "event: end\ndata: {}\n\n")
					fl.Flush()
					return
				}
			}
		}
	}
}
