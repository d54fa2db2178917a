package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"repro/benchmark/kit"
)

// route is one entry of the read mixes.
type route int

const (
	rTopK20 route = iota
	rTopK100
	rTrends20
	rPair
	rTrendLookup
	rStats
	rPartition
	rHistTopKSealed
	rHistPeriods
	rHistPairScan
	rHistTopKLive
	rHistTrendsLive
	rHistPairLive
	numRoutes
)

var routeNames = [numRoutes]string{
	"topk20", "topk100", "trends20", "pair", "trendlookup", "stats", "partition",
	"hist_topk_sealed", "hist_periods", "hist_pair_scan",
	"hist_topk_live", "hist_trends_live", "hist_pair_live",
}

// request is one scheduled read: when it is due (open loop only), the
// route, and a seeded pick that selects the pair or period among whatever
// the service has listed by then.
type request struct {
	Due   time.Duration // offset from the start of the window
	Route route
	Pick  uint32
}

// liveRoutes is the live issuer's mix: every five requests hold each route
// once, in seeded order. About once a second the /topk request asks for
// k=100.
var liveRoutes = []route{rTopK20, rTrends20, rPair, rTrendLookup, rStats}

// histRoutes is the history issuer's mix over the newest listed period, the
// segment still being appended to.
var histRoutes = []route{rHistTopKLive, rHistTrendsLive, rHistPairLive}

// stormMix is the closed-loop read mix in percent.
var stormMix = []struct {
	Route route
	Share int
}{
	{rTopK20, 25}, {rTopK100, 10}, {rTrends20, 15}, {rPair, 20}, {rTrendLookup, 5},
	{rStats, 5}, {rPartition, 1}, {rHistTopKSealed, 10}, {rHistPeriods, 4}, {rHistPairScan, 5},
}

// openSchedule draws an open-loop issuer's requests for a window: Poisson
// arrivals at qps (independent users; also, a fixed interval would lock
// step with the service's 100 ms snapshot refresh and sample one phase of
// it), routes dealt from seeded permutations of the mix. The arrivals are
// scaled so that the last one falls inside the window, which keeps the
// request count exactly qps times the window.
func openSchedule(seed int64, routes []route, qps, seconds float64) []request {
	rng := rand.New(rand.NewSource(seed))
	n := int(qps * seconds)
	out := make([]request, n)
	var at float64
	var deal []int
	for i := range out {
		at += rng.ExpFloat64()
		if i%len(routes) == 0 {
			deal = rng.Perm(len(routes))
		}
		out[i] = request{Due: time.Duration(at * float64(time.Second)), Route: routes[deal[i%len(routes)]], Pick: rng.Uint32()}
	}
	if n > 0 {
		scale := seconds * float64(n) / float64(n+1) / at
		for i := range out {
			out[i].Due = time.Duration(float64(out[i].Due) * scale)
		}
	}
	return out
}

// liveSchedule is the live issuer's request sequence.
func liveSchedule(seed int64, qps, seconds float64) []request {
	out := openSchedule(seed*7919+1, liveRoutes, qps, seconds)
	every := max(int(qps)/len(liveRoutes), 1) // /topk requests per second
	seen := 0
	for i := range out {
		if out[i].Route == rTopK20 {
			if seen%every == 0 {
				out[i].Route = rTopK100
			}
			seen++
		}
	}
	return out
}

// histSchedule is the history issuer's request sequence.
func histSchedule(seed int64, qps, seconds float64) []request {
	return openSchedule(seed*7919+2, histRoutes, qps, seconds)
}

// stormSchedule is the closed-loop clients' shared request sequence: n
// requests, drawn from the storm mix.
func stormSchedule(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed*7919 + 3))
	out := make([]request, n)
	for i := range out {
		x := rng.Intn(100)
		for _, m := range stormMix {
			if x < m.Share {
				out[i].Route = m.Route
				break
			}
			x -= m.Share
		}
		out[i].Pick = rng.Uint32()
	}
	return out
}

// pool is what the issuers learn from answers and share: tag pairs from
// /topk, archived periods from /history/periods.
type pool struct {
	mu      sync.RWMutex
	pairs   [][2]string
	periods []int64
}

func (p *pool) setPairs(ps [][2]string) {
	if len(ps) == 0 {
		return
	}
	p.mu.Lock()
	p.pairs = ps
	p.mu.Unlock()
}

func (p *pool) setPeriods(ps []int64) {
	p.mu.Lock()
	p.periods = ps
	p.mu.Unlock()
}

func (p *pool) pair(pick uint32) ([2]string, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.pairs) == 0 {
		return [2]string{}, false
	}
	return p.pairs[int(pick)%len(p.pairs)], true
}

// newest returns the newest listed period.
func (p *pool) newest() (int64, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.periods) == 0 {
		return 0, false
	}
	return p.periods[len(p.periods)-1], true
}

// sealedWindow is how many sealed periods the storm reads: few enough that
// the archive reader's segment cache holds them all.
const sealedWindow = 4

// sealed picks among the newest listed periods that are no longer appended
// to: the sealedWindow periods before the newest two (the open period and
// the one still being flushed).
func (p *pool) sealed(pick uint32) (int64, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	hi := len(p.periods) - 2
	if hi < 1 {
		return 0, false
	}
	lo := max(hi-sealedWindow, 0)
	return p.periods[lo+int(pick)%(hi-lo)], true
}

// tally counts one issuer's operations.
type tally struct {
	attempted  int64
	failed     int64
	pairMisses int64
	byRoute    [numRoutes]int64
	problems   []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < 5 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.pairMisses += o.pairMisses
	for i := range t.byRoute {
		t.byRoute[i] += o.byRoute[i]
	}
	for _, p := range o.problems {
		if len(t.problems) < 5 {
			t.problems = append(t.problems, p)
		}
	}
}

// The slices of the responses the issuers decode.
type topKBody struct {
	Top []struct {
		Tags []string `json:"tags"`
		J    float64  `json:"j"`
	} `json:"top"`
}

type periodsBody struct {
	Periods []int64 `json:"periods"`
}

type statsBody struct {
	SnapshotAgeMS int64 `json:"snapshot_age_ms"`
}

// issuer is one goroutine's view of the service.
type issuer struct {
	c     *kit.Client
	pool  *pool
	tally tally
	// validateEvery decodes and checks every n-th 200 body (0 or 1: all).
	// The storm clients sample, or decoding would cost more than serving.
	validateEvery int64
	snapshotAgeMS []float64
	spans         *kit.Spans
}

// path resolves a scheduled request against the pool. When the pool cannot
// serve the route yet (no pair or period listed so far) it falls back to
// the request that fills the pool.
func (is *issuer) path(rq request) (route, string) {
	switch rq.Route {
	case rTopK20:
		return rTopK20, "/topk?k=20"
	case rTopK100:
		return rTopK100, "/topk?k=100"
	case rTrends20:
		return rTrends20, "/trends?k=20"
	case rStats:
		return rStats, "/stats"
	case rPartition:
		return rPartition, "/partition"
	case rHistPeriods:
		return rHistPeriods, "/history/periods"
	case rPair, rTrendLookup, rHistPairScan:
		pair, ok := is.pool.pair(rq.Pick)
		if !ok {
			return rTopK100, "/topk?k=100"
		}
		ab := url.PathEscape(pair[0]) + "/" + url.PathEscape(pair[1])
		switch rq.Route {
		case rPair:
			return rPair, "/pairs/" + ab
		case rTrendLookup:
			return rTrendLookup, "/trends/" + ab
		}
		return rHistPairScan, "/history/pairs/" + ab
	case rHistTopKSealed, rHistTopKLive, rHistTrendsLive, rHistPairLive:
		p, ok := is.pool.newest()
		if rq.Route == rHistTopKSealed {
			p, ok = is.pool.sealed(rq.Pick)
		}
		if !ok {
			return rHistPeriods, "/history/periods"
		}
		switch rq.Route {
		case rHistTopKSealed, rHistTopKLive:
			return rq.Route, fmt.Sprintf("/history/topk?period=%d&k=20", p)
		case rHistTrendsLive:
			return rq.Route, fmt.Sprintf("/history/trends?period=%d&k=20", p)
		}
		pair, ok := is.pool.pair(rq.Pick)
		if !ok {
			return rHistPeriods, "/history/periods"
		}
		return rq.Route, fmt.Sprintf("/history/pairs/%s/%s?period=%d",
			url.PathEscape(pair[0]), url.PathEscape(pair[1]), p)
	}
	return rStats, "/stats"
}

// do issues one request and checks the answer: no 5xx, a decodable body, a
// sorted /topk with J in (0,1]. A 404 is a correct answer (an unknown
// predictor, a pair the asked period did not report); on /pairs it is
// counted.
func (is *issuer) do(rq request) {
	r, path := is.path(rq)
	status, body := is.c.Get(path)
	t := &is.tally
	t.attempted++
	t.byRoute[r]++
	switch {
	case status == 0 || status >= 500:
		t.fail("%s: status %d", path, status)
		return
	case r == rPair && status != http.StatusOK:
		// Retention can prune a pair between the /topk answer that listed
		// it and this lookup. The harness counts these; once the stream has
		// drained it checks that no listed pair is missing.
		t.pairMisses++
		return
	case status != http.StatusOK:
		return
	}
	sampled := is.validateEvery <= 1 || t.attempted%is.validateEvery == 0
	switch {
	case !sampled:
	case r == rTopK20 || r == rTopK100:
		var b topKBody
		if err := json.Unmarshal(body, &b); err != nil {
			t.fail("%s: %v", path, err)
			return
		}
		pairs := make([][2]string, 0, len(b.Top))
		for i, c := range b.Top {
			if c.J <= 0 || c.J > 1 || (i > 0 && c.J > b.Top[i-1].J) {
				t.fail("%s: entry %d has J=%g after %g", path, i, c.J, b.Top[max(i-1, 0)].J)
				return
			}
			if len(c.Tags) == 2 {
				pairs = append(pairs, [2]string{c.Tags[0], c.Tags[1]})
			}
		}
		is.pool.setPairs(pairs)
	case r == rHistPeriods:
		var b periodsBody
		if err := json.Unmarshal(body, &b); err != nil {
			t.fail("%s: %v", path, err)
			return
		}
		is.pool.setPeriods(b.Periods)
	case r == rStats:
		var b statsBody
		if err := json.Unmarshal(body, &b); err != nil {
			t.fail("%s: %v", path, err)
			return
		}
		is.snapshotAgeMS = append(is.snapshotAgeMS, float64(b.SnapshotAgeMS))
	case !json.Valid(body):
		t.fail("%s: undecodable body", path)
	}
}

// waitUntil sleeps to within half a millisecond of due and then yields in
// a loop: a plain timer wake-up is 0.1 to 1 ms late here, which an
// open-loop issuer would report as latency. It returns false if stop (nil:
// never) was closed first.
func waitUntil(due time.Time, stop <-chan struct{}) bool {
	if d := time.Until(due); d > 500*time.Microsecond {
		t := time.NewTimer(d - 500*time.Microsecond)
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
			return false
		}
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	select {
	case <-stop:
		return false
	default:
		return true
	}
}

// openLoop issues every request at its due time regardless of how long
// earlier ones took, and times each from its due time, so a stall shows as
// the wait it imposes on the requests behind it. It ends with the schedule,
// or before a request that falls due after stop was closed. after runs
// untimed after each request. It returns latencies and generator lateness
// in milliseconds.
func (is *issuer) openLoop(schedule []request, start time.Time, stop <-chan struct{}, after func()) (latMS, lateMS []float64) {
	latMS = make([]float64, 0, len(schedule))
	lateMS = make([]float64, 0, len(schedule))
	for _, rq := range schedule {
		due := start.Add(rq.Due)
		if !waitUntil(due, stop) {
			break
		}
		sent := time.Now()
		is.do(rq)
		done := time.Now()
		latMS = append(latMS, float64(done.Sub(due))/1e6)
		lateMS = append(lateMS, float64(sent.Sub(due))/1e6)
		is.spans.Add("query."+routeNames[rq.Route], 0, 0, sent, done)
		if after != nil {
			after()
		}
	}
	return latMS, lateMS
}

// closedLoop issues every stride-th request of the shared sequence from
// index first on, one after the other.
func (is *issuer) closedLoop(schedule []request, first, stride int) {
	for i := first; i < len(schedule); i += stride {
		is.do(schedule[i])
	}
}
