package server

// The live ranking and lookup routes: /topk and /partition from the
// rendered snapshot, /pairs from the Tracker directly.

import (
	"net/http"

	"repro/internal/core"
	"repro/internal/jaccard"
	"repro/internal/partition"
	"repro/internal/tagset"
)

// Coefficient is the JSON rendering of one Jaccard coefficient.
type Coefficient struct {
	Tags []string `json:"tags"`
	J    float64  `json:"j"`
	CN   int64    `json:"cn"`
}

func (s *Server) coefficients(in []jaccard.Coefficient) []Coefficient {
	out := make([]Coefficient, len(in))
	for i, c := range in {
		out[i] = Coefficient{Tags: s.dict.Strings(c.Tags), J: c.J, CN: c.CN}
	}
	return out
}

// TopKResponse is the /topk payload.
type TopKResponse struct {
	DocsProcessed int64         `json:"docs_processed"`
	Periods       int           `json:"periods"`
	K             int           `json:"k"`
	Top           []Coefficient `json:"top"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	k, ok := queryK(w, r.URL.Query())
	if !ok {
		return
	}
	k = min(k, s.cfg.TopK)
	cur := s.cur.Load()
	writeBody(w, cur.body(bodyKey{route: "/topk", k: k}, func() interface{} { return s.topKResponse(cur.snap, k) }))
}

// topKResponse builds the /topk payload of one snapshot; k is already
// clamped.
func (s *Server) topKResponse(snap *core.Snapshot, k int) TopKResponse {
	top := snap.TopK
	if len(top) > k {
		top = top[:k]
	}
	return TopKResponse{
		DocsProcessed: snap.DocsProcessed,
		Periods:       len(snap.Periods),
		K:             k,
		Top:           s.coefficients(top),
	}
}

// PairResponse is the /pairs/{tagA}/{tagB} payload. Evicted marks answers
// served from the Tracker's LRU of pruned coefficients: the pair's
// reporting periods have left the retention window, and the value is the
// latest one seen before pruning.
type PairResponse struct {
	Tags    []string `json:"tags"`
	J       float64  `json:"j"`
	CN      int64    `json:"cn"`
	Period  int64    `json:"period"`
	Evicted bool     `json:"evicted,omitempty"`
}

// handlePair looks the pair up in the Tracker directly — point queries are
// cheap under the owning shard's lock and this keeps them as fresh as the
// last Calculator report rather than the last cache refresh. Pairs whose
// periods were pruned by retention are answered from the evicted LRU when
// the pipeline has one configured.
func (s *Server) handlePair(w http.ResponseWriter, r *http.Request) {
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
	c, period, evicted, ok := s.pipe.Tracker().LookupDetail(set.Key())
	if !ok {
		httpError(w, http.StatusNotFound, "no coefficient reported for pair")
		return
	}
	writeJSON(w, http.StatusOK, PairResponse{Tags: s.dict.Strings(c.Tags), J: c.J, CN: c.CN, Period: period, Evicted: evicted})
}

// PartitionInfo is one partition in the /partition payload.
type PartitionInfo struct {
	Index int      `json:"index"`
	Load  int64    `json:"load"`
	Tags  []string `json:"tags"`
}

// PartitionResponse is the /partition payload.
type PartitionResponse struct {
	Epoch      int             `json:"epoch"`
	Merges     int             `json:"merges"`
	Pending    bool            `json:"repartition_pending"`
	Partitions []PartitionInfo `json:"partitions"`
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	cur := s.cur.Load()
	writeBody(w, cur.body(bodyKey{route: "/partition"}, func() interface{} { return s.partitionResponse(cur.snap) }))
}

// partitionResponse builds the /partition payload of one snapshot.
func (s *Server) partitionResponse(snap *core.Snapshot) PartitionResponse {
	resp := PartitionResponse{
		Epoch:      snap.Epoch,
		Merges:     snap.Merges,
		Pending:    snap.RepartitionPending,
		Partitions: make([]PartitionInfo, len(snap.Partitions)),
	}
	for i, p := range snap.Partitions {
		resp.Partitions[i] = s.partitionInfo(i, p)
	}
	return resp
}

func (s *Server) partitionInfo(i int, p partition.Partition) PartitionInfo {
	return PartitionInfo{Index: i, Load: p.Load, Tags: s.dict.Strings(p.Tags)}
}
