package trend

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/tagset"
)

func mustStream(t *testing.T, cfg StreamConfig) *Stream {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStreamValidate(t *testing.T) {
	bad := []StreamConfig{
		{Alpha: 0, MinSupport: 1},
		{Alpha: 1.5, MinSupport: 1},
		{Alpha: 0.5, MinSupport: 0},
		{Alpha: 0.5, MinSupport: 1, MaxTracked: -1},
		{Alpha: 0.5, MinSupport: 1, TopK: -1},
		{Alpha: 0.5, MinSupport: 1, Threshold: -0.1},
		{Alpha: 0.5, MinSupport: 1, Threshold: 1.5},
		{Alpha: 0.5, MinSupport: 1, Shards: -1},
		{Alpha: 0.5, MinSupport: 1, KeepPeriods: -1},
	}
	for i, cfg := range bad {
		if _, err := NewStream(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	s := mustStream(t, StreamConfig{Alpha: 0.4, MinSupport: 5})
	if got := s.Config().TopK; got != 64 {
		t.Errorf("default TopK = %d", got)
	}
}

func TestStreamFirstSightingEstablishesPredictor(t *testing.T) {
	s := mustStream(t, StreamConfig{Alpha: 0.5, MinSupport: 1})
	s.Observe(1, coeff(0.5, 10, 1, 2))
	if got := s.StatsSnapshot(); got.Scored != 0 || got.Tracked != 1 {
		t.Errorf("stats after first sighting = %+v", got)
	}
	p, ok := s.Predictor(tagset.New(1, 2).Key())
	if !ok || p.Expectation != 0.5 || p.Seen != 1 || p.LastPeriod != 1 {
		t.Errorf("predictor = %+v ok=%v", p, ok)
	}
}

func TestStreamUpgradeWithinEstablishmentPeriod(t *testing.T) {
	s := mustStream(t, StreamConfig{Alpha: 0.5, MinSupport: 1})
	s.Observe(1, coeff(0.2, 3, 1, 2))
	s.Observe(1, coeff(0.8, 9, 1, 2)) // CN upgrade replaces the first value
	p, _ := s.Predictor(tagset.New(1, 2).Key())
	if p.Expectation != 0.8 || p.Seen != 1 {
		t.Errorf("predictor = %+v, want expectation 0.8 from the upgrade", p)
	}
	if got := s.StatsSnapshot().Scored; got != 0 {
		t.Errorf("scored = %d during establishment", got)
	}
}

func TestStreamCorrectionRescoresPeriod(t *testing.T) {
	s := mustStream(t, StreamConfig{Alpha: 0.5, MinSupport: 1})
	key := tagset.New(1, 2).Key()
	s.Observe(1, coeff(0.2, 5, 1, 2))
	s.Observe(2, coeff(0.8, 6, 1, 2)) // scored against base 0.2
	s.Observe(2, coeff(0.4, 9, 1, 2)) // upgrade: re-score against the same base

	top := s.TopTrends(2, 10)
	if len(top) != 1 {
		t.Fatalf("TopTrends = %v", top)
	}
	e := top[0]
	if e.Predicted != 0.2 || e.Observed != 0.4 || e.Score < 0.199 || e.Score > 0.201 {
		t.Errorf("corrected event = %+v", e)
	}
	// Expectation as if only the final value had been observed:
	// 0.5*0.4 + 0.5*0.2 = 0.3.
	p, _ := s.Predictor(key)
	if p.Expectation < 0.299 || p.Expectation > 0.301 {
		t.Errorf("expectation = %g, want 0.3", p.Expectation)
	}
}

func TestStreamOutOfOrderDropped(t *testing.T) {
	s := mustStream(t, StreamConfig{Alpha: 0.5, MinSupport: 1})
	s.Observe(5, coeff(0.5, 5, 1, 2))
	s.Observe(3, coeff(0.9, 6, 1, 2)) // older than the predictor's period
	if got := s.StatsSnapshot(); got.OutOfOrder != 1 || got.Scored != 0 {
		t.Errorf("stats = %+v, want one out-of-order drop", got)
	}
}

func TestStreamRetentionPrunesPeriodState(t *testing.T) {
	s := mustStream(t, StreamConfig{Alpha: 0.5, MinSupport: 1, KeepPeriods: 2})
	pair := func(a tagset.Tag) jaccard.Coefficient { return coeff(0.5, 5, a, a+1) }
	s.Observe(1, pair(10))
	s.Observe(1, pair(20))
	s.Observe(2, pair(10)) // scores period 2
	s.Observe(3, pair(10)) // scores period 3, prunes period 1
	if got := s.Periods(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Periods() = %v, want [2 3]", got)
	}
	if got := s.TopTrends(1, 10); len(got) != 0 {
		t.Errorf("pruned period still has trends: %v", got)
	}
	// Predictors survive period pruning.
	if _, ok := s.Predictor(tagset.New(20, 21).Key()); !ok {
		t.Error("predictor pruned with its period")
	}
	// A report for the pruned period is late, not scored.
	s.Observe(1, coeff(0.9, 9, 30, 31))
	if got := s.StatsSnapshot(); got.Late != 1 {
		t.Errorf("late = %d, want 1", got.Late)
	}
	if got := s.StatsSnapshot().PrunedPeriods; got != 1 {
		t.Errorf("pruned periods = %d, want 1", got)
	}
}

// TestStreamShardFloorGuardsPrunedPeriod pins the registry-to-shard-lock
// race guard: a period the retention registry approved can be pruned by a
// concurrent observer before the shard lock is taken, and recording into
// it would resurrect maps that retention never hands out for pruning
// again. The shard-local floor must reject such observations as late.
func TestStreamShardFloorGuardsPrunedPeriod(t *testing.T) {
	s := mustStream(t, StreamConfig{Alpha: 0.5, MinSupport: 1, KeepPeriods: 2, Shards: 1})
	c := coeff(0.5, 5, 1, 2)
	s.Observe(1, c)
	s.Observe(2, c)

	// Simulate the interleaving: period 2 is pruned under the shard lock
	// while another observer already holds a stale retained=true decision.
	sh := s.shardOf(c.Tags.Key())
	sh.mu.Lock()
	sh.evictPeriod(2)
	sh.mu.Unlock()

	sh.mu.Lock()
	_, scored, _, late := sh.observe(0.5, 2, c.Tags.Key(), coeff(0.9, 9, 1, 2))
	sh.mu.Unlock()
	if scored || !late {
		t.Fatalf("observe on pruned period: scored=%v late=%v, want late drop", scored, late)
	}
	if got := s.TopTrends(2, 10); len(got) != 0 {
		t.Errorf("pruned period state resurrected: %v", got)
	}
	sh.mu.Lock()
	_, alive := sh.periods[2]
	sh.mu.Unlock()
	if alive {
		t.Error("pruned period maps recreated after late observation")
	}
}

func TestStreamSubscribeThreshold(t *testing.T) {
	s := mustStream(t, StreamConfig{Alpha: 0.5, MinSupport: 1, Threshold: 0.3})
	ch, cancel := s.Subscribe(8)
	defer cancel()
	s.Observe(1, coeff(0.5, 5, 1, 2))
	s.Observe(2, coeff(0.6, 5, 1, 2)) // score 0.1 < threshold: not published
	s.Observe(3, coeff(0.1, 5, 1, 2)) // score |0.1-0.55| = 0.45: published
	// Delivery is asynchronous through the broker goroutine; Sync blocks
	// until everything published above has been fanned out.
	s.Sync()
	select {
	case e := <-ch:
		if e.Period != 3 || e.Rising {
			t.Errorf("published event = %+v", e)
		}
	default:
		t.Fatal("no event published above threshold")
	}
	select {
	case e := <-ch:
		t.Fatalf("unexpected second event %+v", e)
	default:
	}
	if got := s.StatsSnapshot(); got.Published != 1 || got.Subscribers != 1 {
		t.Errorf("stats = %+v", got)
	}
	cancel()
	if _, open := <-ch; open {
		t.Error("cancel did not close the channel")
	}
	if got := s.StatsSnapshot().Subscribers; got != 0 {
		t.Errorf("subscribers after cancel = %d", got)
	}
}

func TestStreamPredictorEviction(t *testing.T) {
	s := mustStream(t, StreamConfig{Alpha: 0.5, MinSupport: 1, MaxTracked: 8, Shards: 1})
	for i := 0; i < 64; i++ {
		a := tagset.Tag(2 * i)
		s.Observe(int64(i+1), coeff(0.5, 5, a, a+1))
	}
	if got := s.Tracked(); got > 8 {
		t.Errorf("tracked = %d, exceeds MaxTracked 8", got)
	}
	// The most recent predictor survives.
	if _, ok := s.Predictor(tagset.New(126, 127).Key()); !ok {
		t.Error("most recent predictor evicted")
	}
}

// streamArrival is one report acceptance as the Tracker would emit it:
// a fresh (period, tagset) value or a strictly-higher-CN upgrade.
type streamArrival struct {
	period int64
	c      jaccard.Coefficient
}

// genArrivals builds a randomized arrival sequence over nKeys tagsets and
// periods 1..nPeriods, dense in ties (J on a 1/8 grid), upgrades (second
// and third versions with higher CN and fresh J) and sub-support reports.
// Arrivals are grouped by period (the Trend operator's per-tagset order
// guarantee); within a period the order is shuffled with upgrades kept
// after their base report. It also returns the per-period deduplicated
// final reports — what the batch Detector consumes.
func genArrivals(rng *rand.Rand, nKeys, nPeriods int) (arrivals []streamArrival, batches [][]jaccard.Coefficient) {
	batches = make([][]jaccard.Coefficient, nPeriods+1)
	for p := 1; p <= nPeriods; p++ {
		var periodArr []streamArrival
		for k := 0; k < nKeys; k++ {
			if rng.Intn(3) == 0 {
				continue // tagset not reported this period
			}
			a := tagset.Tag(2 * k)
			versions := 1 + rng.Intn(3)
			cn := int64(1 + rng.Intn(4)) // may start below MinSupport
			var final jaccard.Coefficient
			for v := 0; v < versions; v++ {
				c := jaccard.Coefficient{
					Tags: tagset.New(a, a+1),
					J:    float64(rng.Intn(9)) / 8,
					CN:   cn,
				}
				periodArr = append(periodArr, streamArrival{period: int64(p), c: c})
				final = c
				cn += int64(1 + rng.Intn(3))
			}
			batches[p] = append(batches[p], final)
		}
		// Shuffle while preserving per-tagset order: sort keys randomly by
		// interleaving whole per-tagset runs would be complex; instead do a
		// stable random interleave by repeatedly popping from per-tagset
		// queues.
		queues := make(map[tagset.Key][]streamArrival)
		var order []tagset.Key
		for _, ar := range periodArr {
			key := ar.c.Tags.Key()
			if _, seen := queues[key]; !seen {
				order = append(order, key)
			}
			queues[key] = append(queues[key], ar)
		}
		for len(order) > 0 {
			i := rng.Intn(len(order))
			key := order[i]
			arrivals = append(arrivals, queues[key][0])
			queues[key] = queues[key][1:]
			if len(queues[key]) == 0 {
				order[i] = order[len(order)-1]
				order = order[:len(order)-1]
			}
		}
	}
	return arrivals, batches
}

// TestStreamMatchesBatchDetector is the differential test the subsystem's
// correctness rests on: the streaming detector fed one arrival at a time —
// duplicates, upgrades and sub-support reports included — must score
// exactly the events the batch Detector derives from the deduplicated
// per-period reports, with identical top-k rankings under the bounded
// heaps and identical full rankings under the fallback scan.
func TestStreamMatchesBatchDetector(t *testing.T) {
	for round := int64(0); round < 5; round++ {
		rng := rand.New(rand.NewSource(100 + round))
		const bound = 8 // far below the event count: exclusion is exercised
		cfg := Config{Alpha: 0.4, MinSupport: 3}
		batch := mustDetector(t, cfg)
		st := mustStream(t, StreamConfig{
			Alpha:      cfg.Alpha,
			MinSupport: cfg.MinSupport,
			TopK:       bound,
			Shards:     4,
		})

		arrivals, batches := genArrivals(rng, 40, 12)
		i := 0
		for p := 1; p < len(batches); p++ {
			for ; i < len(arrivals) && arrivals[i].period == int64(p); i++ {
				st.Observe(arrivals[i].period, arrivals[i].c)
			}
			want := batch.Feed(int64(p), batches[p])

			for _, k := range []int{1, bound / 2, bound, 0} {
				got := st.TopTrends(int64(p), k)
				exp := want
				if k > 0 {
					exp = TopK(want, k)
				}
				if len(got) != len(exp) {
					t.Fatalf("round %d period %d k=%d: stream %d events, batch %d",
						round, p, k, len(got), len(exp))
				}
				for j := range exp {
					g, w := got[j], exp[j]
					if !g.Tags.Equal(w.Tags) || g.Score != w.Score ||
						g.Predicted != w.Predicted || g.Observed != w.Observed ||
						g.Rising != w.Rising || g.CN != w.CN || g.Period != w.Period {
						t.Fatalf("round %d period %d k=%d event %d:\n stream %+v\n batch  %+v",
							round, p, k, j, g, w)
					}
				}
			}
		}
		if st.Tracked() != batch.Tracked() {
			t.Fatalf("round %d: stream tracks %d predictors, batch %d",
				round, st.Tracked(), batch.Tracked())
		}
	}
}

// TestStreamConcurrentStress hammers the sharded detector from several
// reporter goroutines while readers take top-trend views, point lookups
// and stats snapshots, and a subscriber drains the event feed — with
// retention pruning in flight. Run under -race this exercises the locking
// discipline; the assertions check the invariants every mid-flight read
// must satisfy.
func TestStreamConcurrentStress(t *testing.T) {
	const (
		reporters = 6
		readers   = 4
		bound     = 16
		retention = 4
	)
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	s := mustStream(t, StreamConfig{
		Alpha:       0.4,
		MinSupport:  1,
		MaxTracked:  512,
		TopK:        bound,
		Threshold:   0.2,
		Shards:      4,
		KeepPeriods: retention,
	})

	ch, cancel := s.Subscribe(64)
	defer cancel()
	var consumed int64
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for e := range ch {
			if e.Score < 0.2 {
				t.Errorf("published event below threshold: %+v", e)
				return
			}
			atomic.AddInt64(&consumed, 1)
		}
	}()

	var wg sync.WaitGroup
	var done atomic.Bool
	for r := 0; r < reporters; r++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(id))
			for i := 0; i < iters; i++ {
				period := int64(1 + i/(iters/40+1))
				if rng.Intn(16) == 0 && period > 2 {
					period -= int64(rng.Intn(3))
				}
				a := tagset.Tag(2 * rng.Intn(64))
				s.Observe(period, jaccard.Coefficient{
					Tags: tagset.New(a, a+1),
					J:    float64(rng.Intn(32)+1) / 32,
					CN:   int64(rng.Intn(9) + 1),
				})
			}
		}(int64(r + 1))
	}

	var readWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(id int64) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(1000 + id))
			for !done.Load() {
				if latest := s.LatestPeriod(); latest > 0 {
					top := s.TopTrends(latest, bound)
					if len(top) > bound {
						t.Errorf("TopTrends returned %d > k", len(top))
						return
					}
					for i := 1; i < len(top); i++ {
						if top[i].Score > top[i-1].Score {
							t.Errorf("TopTrends out of order at %d: %v", i, top)
							return
						}
					}
				}
				ps := s.Periods()
				if len(ps) > retention {
					t.Errorf("Periods() = %v exceeds retention %d", ps, retention)
					return
				}
				a := tagset.Tag(2 * rng.Intn(64))
				s.Predictor(tagset.New(a, a+1).Key())
				st := s.StatsSnapshot()
				if st.HeapEntries > st.Shards*bound*(retention+1) {
					t.Errorf("heap entries %d exceed shards*bound*periods", st.HeapEntries)
					return
				}
				if st.Tracked > 512+512/8+st.Shards {
					t.Errorf("tracked %d exceeds MaxTracked slack", st.Tracked)
					return
				}
			}
		}(int64(r))
	}

	wg.Wait()
	done.Store(true)
	readWG.Wait()
	cancel()
	<-subDone

	st := s.StatsSnapshot()
	if st.Scored == 0 {
		t.Error("stress run scored nothing")
	}
	if st.PrunedPeriods == 0 {
		t.Error("stress run never pruned a period")
	}
	if got := atomic.LoadInt64(&consumed); got == 0 {
		t.Error("subscriber consumed nothing")
	}
}

// TestPredictorEvictionBreaksTiesByKey: 40 same-period reports into a
// stream and a batch detector capped at 16 predictors. Every predictor has
// the same last period, so which ones survive is decided by key alone:
// each eviction pass drops the smallest keys, as a sorted reference does,
// on every run, whatever the maps' iteration order.
func TestPredictorEvictionBreaksTiesByKey(t *testing.T) {
	const maxTracked = 16
	rng := rand.New(rand.NewSource(4))
	var reports []jaccard.Coefficient
	for _, i := range rng.Perm(40) {
		a := tagset.Tag(3 * i)
		reports = append(reports, coeff(0.5, 5, a, a+1+tagset.Tag(i%3)))
	}
	// The stream's shard drops the stalest eighth past the cap on each
	// insert that exceeds it.
	var live []tagset.Key
	for _, c := range reports {
		live = append(live, c.Tags.Key())
		if len(live) > maxTracked {
			slices.Sort(live)
			live = live[len(live)-maxTracked+maxTracked/8:]
		}
	}
	slices.Sort(live)
	// The batch detector evicts once, after the period, down to the cap.
	var keys []tagset.Key
	for _, c := range reports {
		keys = append(keys, c.Tags.Key())
	}
	slices.Sort(keys)
	wantDetector := keys[len(keys)-maxTracked:]

	for run := 0; run < 5; run++ {
		s := mustStream(t, StreamConfig{Alpha: 0.5, MinSupport: 1, MaxTracked: maxTracked, Shards: 1})
		s.ObserveBatch(1, reports)
		var got []tagset.Key
		for _, k := range keys {
			if _, ok := s.Predictor(k); ok {
				got = append(got, k)
			}
		}
		if !slices.Equal(got, live) {
			t.Fatalf("run %d: stream survivors %v, want %v", run, keySets(got), keySets(live))
		}

		cfg := DefaultConfig()
		cfg.MinSupport, cfg.MaxTracked = 1, maxTracked
		d := mustDetector(t, cfg)
		d.Feed(1, reports)
		got = got[:0]
		for _, k := range keys {
			if d.state[k] != nil {
				got = append(got, k)
			}
		}
		if !slices.Equal(got, wantDetector) {
			t.Fatalf("run %d: detector survivors %v, want %v", run, keySets(got), keySets(wantDetector))
		}
	}
}

// keySets renders keys as their tagsets for a failure message.
func keySets(keys []tagset.Key) []tagset.Set {
	sets := make([]tagset.Set, len(keys))
	for i, k := range keys {
		sets[i] = k.Set()
	}
	return sets
}
