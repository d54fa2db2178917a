package operators

import (
	"math"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/partition"
	"repro/internal/storm"
	"repro/internal/stream"
	"repro/internal/tagset"
)

// collector is a test double capturing emissions.
type collector struct {
	emitted []storm.Tuple
	direct  map[storm.TaskID][]storm.Tuple
}

func newCollector() *collector {
	return &collector{direct: make(map[storm.TaskID][]storm.Tuple)}
}

func (c *collector) Emit(t storm.Tuple) { c.emitted = append(c.emitted, t) }
func (c *collector) EmitDirect(id storm.TaskID, t storm.Tuple) {
	c.direct[id] = append(c.direct[id], t)
}

func (c *collector) byStream(name string) []storm.Tuple {
	var out []storm.Tuple
	for _, t := range c.emitted {
		if t.Stream == name {
			out = append(out, t)
		}
	}
	return out
}

func docTuple(tm stream.Millis, tags ...tagset.Tag) storm.Tuple {
	return storm.Tuple{Stream: StreamDoc, Values: []interface{}{DocMsg{Time: tm, Tags: tagset.New(tags...)}}}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		valid  bool
	}{
		{"zero K", func(c *Config) { c.K = 0 }, false},
		{"zero P", func(c *Config) { c.P = 0 }, false},
		{"unknown algorithm", func(c *Config) { c.Algorithm = "nope" }, false},
		{"negative thr", func(c *Config) { c.Thr = -1 }, false},
		{"zero SN", func(c *Config) { c.SN = 0 }, false},
		{"zero statsEvery", func(c *Config) { c.StatsEvery = 0 }, false},
		{"zero reportEvery", func(c *Config) { c.ReportEvery = 0 }, false},
		{"zero windowSpan", func(c *Config) { c.WindowSpan = 0 }, false},
		{"zero maxTags", func(c *Config) { c.MaxTags = 0 }, false},
		{"zero parsers", func(c *Config) { c.Parsers = 0 }, false},
		{"zero disseminators", func(c *Config) { c.Disseminators = 0 }, false},
		{"negative windowCount", func(c *Config) { c.WindowCount = -1 }, false},
		{"negative autoScaleLoad", func(c *Config) { c.AutoScaleLoad = -1 }, false},
		{"negative keepPeriods", func(c *Config) { c.KeepPeriods = -1 }, false},
		{"negative trackerShards", func(c *Config) { c.TrackerShards = -1 }, false},
		{"negative trackerTopK", func(c *Config) { c.TrackerTopK = -1 }, false},
		{"negative evictedPairs", func(c *Config) { c.EvictedPairs = -1 }, false},
		{"negative spoutPending", func(c *Config) { c.SpoutPending = -1 }, false},
		{"negative trackerTasks", func(c *Config) { c.TrackerTasks = -1 }, false},
		{"negative notifyBatch", func(c *Config) { c.NotifyBatch = -1 }, false},
		{"trendAlpha above one", func(c *Config) { c.TrendAlpha = 1.5 }, false},
		{"negative trendMinSupport", func(c *Config) { c.TrendMinSupport = -1 }, false},
		{"negative trendTopK", func(c *Config) { c.TrendTopK = -1 }, false},
		{"trendThreshold above one", func(c *Config) { c.TrendThreshold = 2 }, false},

		// NaN passes every `< 0` / `> 1` comparison, so each float knob
		// needs an explicit math.IsNaN rejection — the gap configparity
		// surfaced when these fields were audited against Validate.
		{"NaN thr", func(c *Config) { c.Thr = math.NaN() }, false},
		{"NaN trendAlpha", func(c *Config) { c.TrendAlpha = math.NaN() }, false},
		{"NaN trendThreshold", func(c *Config) { c.TrendThreshold = math.NaN() }, false},
		{"negative checkpointEvery", func(c *Config) { c.CheckpointEvery = -1 }, false},

		// Cross-field combinations: each knob is in range on its own, but
		// the combination is a configuration that silently does nothing (or
		// less than asked) — Validate must reject it, not accept it.
		{"checkpointEvery without archiveDir", func(c *Config) {
			c.CheckpointEvery = 2
		}, false},
		{"archiveDir without archiveDict", func(c *Config) {
			c.ArchiveDir = t.TempDir()
		}, false},
		{"evictedPairs without keepPeriods", func(c *Config) {
			c.EvictedPairs = 1024
		}, false},
		{"negative archiveBudget", func(c *Config) {
			c.ArchiveBudgetBytes = -1
		}, false},
		{"archiveBudget without archiveDir", func(c *Config) {
			c.ArchiveBudgetBytes = 1 << 20
		}, false},
		{"archiveBudget without keepPeriods", func(c *Config) {
			c.ArchiveDir = t.TempDir()
			c.ArchiveDict = tagset.NewDictionary()
			c.ArchiveBudgetBytes = 1 << 20
		}, false},

		// The combinations the daemon and the benchmark harness actually
		// run with must stay accepted.
		{"archive fully configured", func(c *Config) {
			c.ArchiveDir = t.TempDir()
			c.ArchiveDict = tagset.NewDictionary()
			c.CheckpointEvery = 2
		}, true},
		{"bounded retention with LRU", func(c *Config) {
			c.KeepPeriods = 8
			c.EvictedPairs = 4096
		}, true},
		{"archive with budget", func(c *Config) {
			c.ArchiveDir = t.TempDir()
			c.ArchiveDict = tagset.NewDictionary()
			c.KeepPeriods = 8
			c.ArchiveBudgetBytes = 64 << 20
		}, true},
		{"defaulted zeros", func(c *Config) {
			c.TrackerShards = 0
			c.TrackerTasks = 0
			c.CheckpointEvery = 0
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.valid && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tc.valid && err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

func TestParserDropsAndTruncates(t *testing.T) {
	p := NewParser(3)
	out := newCollector()
	p.Execute(docTuple(0), out) // empty
	if len(out.emitted) != 0 || p.Dropped != 1 {
		t.Errorf("empty doc not dropped: %d emitted, %d dropped", len(out.emitted), p.Dropped)
	}
	p.Execute(docTuple(1, 5, 1, 9, 7, 3), out)
	if len(out.emitted) != 1 {
		t.Fatalf("emitted %d", len(out.emitted))
	}
	got := out.emitted[0].Values[0].(DocMsg).Tags
	if got.Len() != 3 {
		t.Errorf("truncated to %d tags, want 3", got.Len())
	}
}

func TestTagsetKeyStable(t *testing.T) {
	a := docTuple(0, 3, 1, 2)
	b := docTuple(99, 1, 2, 3) // same canonical set, different time
	if TagsetKey(a) != TagsetKey(b) {
		t.Error("equal tagsets hashed differently")
	}
	c := docTuple(0, 1, 2, 4)
	if TagsetKey(a) == TagsetKey(c) {
		t.Error("different tagsets collided (unlikely; check hashing)")
	}
}

func TestPartitionerWindowAndPartial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm = partition.DS
	cfg.WindowSpan = stream.Minutes(5)
	p := NewPartitioner(cfg)
	p.Prepare(&storm.TaskContext{})
	out := newCollector()
	p.Execute(docTuple(0, 1, 2), out)
	p.Execute(docTuple(1000, 1, 2), out)
	p.Execute(docTuple(2000, 3, 4), out)
	if p.WindowLen() != 3 {
		t.Fatalf("window len = %d", p.WindowLen())
	}
	p.Execute(storm.Tuple{Stream: StreamRepartition, Values: []interface{}{RepartitionReq{Epoch: 1}}}, out)
	partials := out.byStream(StreamPartial)
	if len(partials) != 1 {
		t.Fatalf("%d partials", len(partials))
	}
	msg := partials[0].Values[0].(PartialMsg)
	if msg.Epoch != 1 {
		t.Errorf("epoch = %d", msg.Epoch)
	}
	// DS partial: two disjoint sets {1,2} (load 2) and {3,4} (load 1).
	if len(msg.Sets) != 2 {
		t.Fatalf("sets = %v", msg.Sets)
	}
	if p.Repartitions != 1 {
		t.Errorf("Repartitions = %d", p.Repartitions)
	}
}

func TestPartitionerSetCoverPartial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm = partition.SCL
	cfg.K = 2
	p := NewPartitioner(cfg)
	p.Prepare(&storm.TaskContext{})
	out := newCollector()
	p.Execute(docTuple(0, 1, 2), out)
	p.Execute(docTuple(1, 3, 4), out)
	p.Execute(storm.Tuple{Stream: StreamRepartition, Values: []interface{}{RepartitionReq{Epoch: 1}}}, out)
	msg := out.byStream(StreamPartial)[0].Values[0].(PartialMsg)
	if len(msg.Sets) == 0 || len(msg.Sets) > 2 {
		t.Errorf("SCL partial sets = %v", msg.Sets)
	}
}

func TestMergerWaitsForAllPartials(t *testing.T) {
	cfg := DefaultConfig()
	cfg.P = 2
	cfg.K = 2
	m := NewMerger(cfg)
	m.Prepare(&storm.TaskContext{})
	out := newCollector()
	partial := func(sets ...stream.WeightedSet) storm.Tuple {
		return storm.Tuple{Stream: StreamPartial, Values: []interface{}{PartialMsg{Epoch: 1, Sets: sets}}}
	}
	m.Execute(partial(stream.WeightedSet{Tags: tagset.New(1, 2), Count: 5}), out)
	if len(out.byStream(StreamPartitions)) != 0 {
		t.Fatal("merged before all partials arrived")
	}
	m.Execute(partial(stream.WeightedSet{Tags: tagset.New(2, 3), Count: 4}), out)
	parts := out.byStream(StreamPartitions)
	if len(parts) != 1 {
		t.Fatalf("partitions messages = %d", len(parts))
	}
	msg := parts[0].Values[0].(PartitionsMsg)
	if msg.Epoch != 1 || len(msg.Parts) != 2 {
		t.Errorf("msg = %+v", msg)
	}
	// Overlapping sets {1,2} and {2,3} must merge into one DS component.
	if m.Current() == nil || m.Merges != 1 {
		t.Error("merger state not updated")
	}
	covered := false
	for _, p := range msg.Parts {
		if tagset.New(1, 2, 3).SubsetOf(p.Tags) {
			covered = true
		}
	}
	if !covered {
		t.Error("overlapping partials were not unioned into one component")
	}
}

func TestMergerSingleAddition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.P = 1
	cfg.K = 2
	m := NewMerger(cfg)
	m.Prepare(&storm.TaskContext{})
	out := newCollector()
	m.Execute(storm.Tuple{Stream: StreamPartial, Values: []interface{}{PartialMsg{Epoch: 1, Sets: []stream.WeightedSet{
		{Tags: tagset.New(1, 2), Count: 5},
		{Tags: tagset.New(3, 4), Count: 4},
	}}}}, out)

	// Request addition of a new tagset overlapping {1,2}.
	m.Execute(storm.Tuple{Stream: StreamAddition, Values: []interface{}{AdditionReq{Tags: tagset.New(2, 9)}}}, out)
	res := out.byStream(StreamAdditionRes)
	if len(res) != 1 {
		t.Fatalf("addition results = %d", len(res))
	}
	ar := res[0].Values[0].(AdditionRes)
	if !m.Current().Parts[ar.Part].Tags.Contains(9) {
		t.Error("added tags not applied to merger's partitions")
	}
	if m.Additions != 1 {
		t.Errorf("Additions = %d", m.Additions)
	}

	// Requesting an already-covered tagset answers idempotently without a
	// new placement.
	m.Execute(storm.Tuple{Stream: StreamAddition, Values: []interface{}{AdditionReq{Tags: tagset.New(2, 9)}}}, out)
	if m.Additions != 1 {
		t.Errorf("idempotent re-add counted: %d", m.Additions)
	}
	if len(out.byStream(StreamAdditionRes)) != 2 {
		t.Error("covered re-request not answered")
	}

	// Before any merge, requests are ignored.
	m2 := NewMerger(cfg)
	m2.Prepare(&storm.TaskContext{})
	out2 := newCollector()
	m2.Execute(storm.Tuple{Stream: StreamAddition, Values: []interface{}{AdditionReq{Tags: tagset.New(1)}}}, out2)
	if len(out2.emitted) != 0 {
		t.Error("pre-merge addition produced output")
	}
}

// notifyTuple wraps notifications the way the Disseminator ships them.
func notifyTuple(msgs ...NotifyMsg) storm.Tuple {
	return storm.Tuple{Stream: StreamNotify, Values: []interface{}{NotifyBatch{Msgs: msgs}}}
}

func TestCalculatorPeriodsAndFlush(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReportEvery = 1000
	c := NewCalculator(cfg)
	c.Prepare(&storm.TaskContext{})
	out := newCollector()
	notify := func(tm stream.Millis, tags ...tagset.Tag) {
		c.Execute(notifyTuple(NotifyMsg{Time: tm, Tags: tagset.New(tags...)}), out)
	}
	notify(100, 1, 2)
	notify(200, 1, 2)
	notify(300, 1)
	if len(out.byStream(StreamCoeff)) != 0 {
		t.Fatal("reported before boundary")
	}
	notify(1001, 1, 2) // crosses the t=1000 boundary → flush of period 1
	coeffs := out.byStream(StreamCoeff)
	if len(coeffs) != 1 {
		t.Fatalf("coeffs = %d", len(coeffs))
	}
	// One tuple per flush: the whole period rides in a single CoeffBatch.
	batch := coeffs[0].Values[0].(CoeffBatch)
	if batch.Period != 1 {
		t.Errorf("period = %d", batch.Period)
	}
	// J({1,2}) = 2 intersections / 3 docs containing 1 or 2.
	var pair *jaccard.Coefficient
	for i, co := range batch.Coeffs {
		if co.Tags.Equal(tagset.New(1, 2)) {
			pair = &batch.Coeffs[i]
		}
	}
	if pair == nil || pair.CN != 2 || pair.J < 0.66 || pair.J > 0.67 {
		t.Errorf("coeff for {1,2} = %+v", pair)
	}
	// Cleanup flushes the in-progress period.
	c.Cleanup(out)
	all := out.byStream(StreamCoeff)
	if len(all) != 2 {
		t.Fatalf("after cleanup coeffs = %d", len(all))
	}
	if got := all[1].Values[0].(CoeffBatch).Period; got != 2 {
		t.Errorf("final period = %d", got)
	}
	if c.Reports != 2 || c.Observed != 4 {
		t.Errorf("Reports=%d Observed=%d", c.Reports, c.Observed)
	}
}

func TestCalculatorSkipsEmptyPeriods(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReportEvery = 100
	c := NewCalculator(cfg)
	c.Prepare(&storm.TaskContext{})
	out := newCollector()
	c.Execute(notifyTuple(NotifyMsg{Time: 50, Tags: tagset.New(1, 2)}), out)
	// Jump far ahead: several empty periods in between must not emit.
	c.Execute(notifyTuple(NotifyMsg{Time: 1050, Tags: tagset.New(1, 2)}), out)
	coeffs := out.byStream(StreamCoeff)
	if len(coeffs) != 1 {
		t.Fatalf("coeffs = %d", len(coeffs))
	}
}

func TestTrackerDeduplicatesByCN(t *testing.T) {
	tr := NewTracker()
	tr.Prepare(&storm.TaskContext{})
	emit := func(period int64, cn int64, j float64) {
		tr.Execute(coeffTuple(period, tagset.New(1, 2), j, cn), nil)
	}
	emit(1, 3, 0.5)
	emit(1, 7, 0.6) // higher CN wins
	emit(1, 5, 0.4) // lower CN ignored
	emit(2, 1, 0.9) // different period kept separately
	if tr.Received.Load() != 4 || tr.Duplicates.Load() != 2 {
		t.Errorf("Received=%d Duplicates=%d", tr.Received.Load(), tr.Duplicates.Load())
	}
	rep := tr.Report(1)
	if len(rep) != 1 || rep[0].CN != 7 || rep[0].J != 0.6 {
		t.Errorf("period 1 = %+v", rep)
	}
	if got := tr.Periods(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Periods = %v", got)
	}
	if all := tr.All(); len(all) != 2 {
		t.Errorf("All = %v", all)
	}
}

// buildDissem wires a Disseminator with a fake calculator task list.
func buildDissem(cfg Config) (*Disseminator, *collector) {
	d := NewDisseminator(cfg)
	// Fake context: calculator tasks 0..K-1. TasksOf needs a topology, so
	// emulate Prepare manually.
	d.ctx = nil
	d.calcTasks = make([]storm.TaskID, cfg.K)
	for i := range d.calcTasks {
		d.calcTasks[i] = storm.TaskID(i)
	}
	d.batchCalc = make([]int64, cfg.K)
	d.Stats.PerCalculator = make([]int64, cfg.K)
	d.notifyBuf = make([][]NotifyMsg, cfg.K)
	return d, newCollector()
}

func installPartitions(d *Disseminator, out *collector, parts ...partition.Partition) {
	q := partition.Quality{AvgCom: 1, MaxLoad: 0.5}
	d.Execute(storm.Tuple{Stream: StreamPartitions, Values: []interface{}{PartitionsMsg{
		Epoch: 1, Parts: parts, Quality: q,
	}}}, out)
}

func TestDisseminatorBootstrapRequest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 2
	cfg.WindowSpan = 1000
	d, out := buildDissem(cfg)
	d.Execute(docTuple(10, 1, 2), out)
	if len(out.byStream(StreamRepartition)) != 0 {
		t.Fatal("bootstrap requested before window filled")
	}
	d.Execute(docTuple(1001, 1, 2), out)
	reqs := out.byStream(StreamRepartition)
	if len(reqs) != 1 {
		t.Fatalf("bootstrap requests = %d", len(reqs))
	}
	if got := reqs[0].Values[0].(RepartitionReq).Epoch; got != 1 {
		t.Errorf("bootstrap epoch = %d", got)
	}
	// No duplicate request while awaiting.
	d.Execute(docTuple(1002, 1, 2), out)
	if len(out.byStream(StreamRepartition)) != 1 {
		t.Error("duplicate bootstrap request")
	}
	if d.Stats.BeforePartition != 3 {
		t.Errorf("BeforePartition = %d", d.Stats.BeforePartition)
	}
}

func TestDisseminatorRoutingAndSubsets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 3
	d, out := buildDissem(cfg)
	installPartitions(d, out,
		partition.Partition{Tags: tagset.New(1, 2, 3)}, // calc 0
		partition.Partition{Tags: tagset.New(1, 3)},    // calc 1
		partition.Partition{Tags: tagset.New(9)},       // calc 2
	)
	// The paper's example: si={a,b,c}; calc0 holds {a,b,c}, calc1 {a,c}.
	d.Execute(docTuple(10, 1, 2, 3), out)
	if got := len(out.direct[0]); got != 1 {
		t.Fatalf("calc0 notifications = %d", got)
	}
	if got := out.direct[0][0].Values[0].(NotifyBatch).Msgs[0].Tags; !got.Equal(tagset.New(1, 2, 3)) {
		t.Errorf("calc0 subset = %v", got)
	}
	if got := out.direct[1][0].Values[0].(NotifyBatch).Msgs[0].Tags; !got.Equal(tagset.New(1, 3)) {
		t.Errorf("calc1 subset = %v", got)
	}
	if len(out.direct[2]) != 0 {
		t.Error("calc2 notified without overlap")
	}
	if d.Stats.Notifications != 2 || d.Stats.NotifiedDocs != 1 {
		t.Errorf("stats = %+v", d.Stats)
	}
	if d.Stats.UncoveredDocs != 0 {
		t.Error("covered doc counted as uncovered")
	}
}

func TestDisseminatorSingleAdditionFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 2
	cfg.SN = 3
	d, out := buildDissem(cfg)
	installPartitions(d, out,
		partition.Partition{Tags: tagset.New(1, 2)},
		partition.Partition{Tags: tagset.New(3)},
	)
	// {2,3} is uncovered (no calculator holds both).
	d.Execute(docTuple(1, 2, 3), out)
	d.Execute(docTuple(2, 2, 3), out)
	if len(out.byStream(StreamAddition)) != 0 {
		t.Fatal("addition requested before sn occurrences")
	}
	d.Execute(docTuple(3, 2, 3), out)
	adds := out.byStream(StreamAddition)
	if len(adds) != 1 {
		t.Fatalf("addition requests = %d", len(adds))
	}
	// While pending, further sightings do not re-request.
	d.Execute(docTuple(4, 2, 3), out)
	if len(out.byStream(StreamAddition)) != 1 {
		t.Error("duplicate addition request while pending")
	}
	if d.Stats.AdditionsAsked != 1 || d.Stats.UncoveredDocs != 4 {
		t.Errorf("stats = %+v", d.Stats)
	}
	// The Merger answers: tagset assigned to calculator 0.
	d.Execute(storm.Tuple{Stream: StreamAdditionRes, Values: []interface{}{AdditionRes{
		Tags: tagset.New(2, 3), Part: 0,
	}}}, out)
	out.direct = make(map[storm.TaskID][]storm.Tuple)
	d.Execute(docTuple(5, 2, 3), out)
	if got := out.direct[0][0].Values[0].(NotifyBatch).Msgs[0].Tags; !got.Equal(tagset.New(2, 3)) {
		t.Errorf("post-addition subset = %v", got)
	}
	if d.Stats.UncoveredDocs != 4 {
		t.Error("covered doc after addition still counted uncovered")
	}
}

func TestDisseminatorQualityTriggersRepartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 2
	cfg.StatsEvery = 10
	cfg.Thr = 0.5
	d, out := buildDissem(cfg)
	// Reference avgCom=1, maxLoad=0.5 (from installPartitions).
	installPartitions(d, out,
		partition.Partition{Tags: tagset.New(1)},
		partition.Partition{Tags: tagset.New(2)},
	)
	// First batch: balanced docs alternating between the calculators
	// measure exactly the reference: avgCom'=1, maxLoad'=0.5.
	for i := 0; i < 10; i++ {
		d.Execute(docTuple(stream.Millis(i), tagset.Tag(1+i%2)), out)
	}
	if len(out.byStream(StreamRepartition)) != 0 {
		t.Fatal("a batch at the reference quality triggered a repartition")
	}
	// Second batch: every doc touches both calculators: avgCom'=2 > 1*1.5
	// while maxLoad'=0.5 stays fine → communication-caused repartition.
	for i := 0; i < 10; i++ {
		d.Execute(docTuple(stream.Millis(10+i), 1, 2), out)
	}
	reqs := out.byStream(StreamRepartition)
	if len(reqs) != 1 {
		t.Fatalf("repartition requests = %d", len(reqs))
	}
	if d.Stats.CauseComm != 1 || d.Stats.CauseLoad != 0 || d.Stats.CauseBoth != 0 {
		t.Errorf("causes = %+v", d.Stats)
	}
	if got := reqs[0].Values[0].(RepartitionReq).Epoch; got != 2 {
		t.Errorf("epoch = %d", got)
	}
	if d.Stats.CommSeries.Len() != 2 || len(d.Stats.CommSeries.Marks) != 1 {
		t.Errorf("series: %d points %d marks", d.Stats.CommSeries.Len(), len(d.Stats.CommSeries.Marks))
	}
	if len(d.Stats.LoadSeries) != 2 {
		t.Errorf("load series samples = %d", len(d.Stats.LoadSeries))
	}
	sh := d.Stats.LoadSeries[1].Shares
	if len(sh) != 2 || sh[0] < sh[1] {
		t.Errorf("shares not sorted desc: %v", sh)
	}
}

func TestDisseminatorLoadCause(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 2
	cfg.StatsEvery = 10
	cfg.Thr = 0.5
	d, out := buildDissem(cfg)
	installPartitions(d, out,
		partition.Partition{Tags: tagset.New(1)},
		partition.Partition{Tags: tagset.New(2)},
	)
	// Calibration batch: balanced (maxLoad'=0.5). Second batch: all docs
	// to calculator 0 → avgCom'=1 (fine), maxLoad'=1 > 0.5*1.5.
	for i := 0; i < 10; i++ {
		d.Execute(docTuple(stream.Millis(i), tagset.Tag(1+i%2)), out)
	}
	for i := 0; i < 10; i++ {
		d.Execute(docTuple(stream.Millis(10+i), 1), out)
	}
	if d.Stats.CauseLoad != 1 || d.Stats.CauseComm != 0 {
		t.Errorf("causes = %+v", d.Stats)
	}
}

func TestDisseminatorStatsAccessors(t *testing.T) {
	var s DissemStats
	if s.Communication() != 0 {
		t.Error("empty Communication != 0")
	}
	s.NotifiedDocs = 4
	s.Notifications = 6
	if s.Communication() != 1.5 {
		t.Errorf("Communication = %g", s.Communication())
	}
	s.PerCalculator = []int64{1, 3}
	if g := s.LoadGini(); g <= 0 {
		t.Errorf("LoadGini = %g", g)
	}
}

func TestCauseString(t *testing.T) {
	for c, want := range map[Cause]string{
		CauseNone: "none", CauseCommunication: "communication",
		CauseLoad: "load", CauseBoth: "both", CauseBootstrap: "bootstrap",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestSourceEmitsDocs(t *testing.T) {
	docs := []stream.Document{
		{ID: 1, Time: 5, Tags: tagset.New(1)},
		{ID: 2, Time: 6, Tags: tagset.New(2)},
	}
	s := SliceSource(docs)
	s.Open(&storm.TaskContext{})
	out := newCollector()
	n := 0
	for s.NextTuple(out) {
		n++
	}
	if n != 2 || len(out.emitted) != 2 {
		t.Errorf("emitted %d tuples over %d calls", len(out.emitted), n)
	}
	if got := out.emitted[0].Values[0].(DocMsg); got.Time != 5 {
		t.Errorf("first = %+v", got)
	}
}

func TestTrackerRetentionAndTopK(t *testing.T) {
	tr := NewTracker()
	tr.SetRetention(2)
	report := func(period int64, tag tagset.Tag, j float64, cn int64) {
		tr.Execute(coeffTuple(period, tagset.New(tag, tag+1), j, cn), nil)
	}
	report(1, 10, 0.9, 5)
	report(2, 20, 0.5, 3)
	report(3, 30, 0.7, 4)

	// Period 1 must be pruned: only the 2 newest periods are retained.
	if got := tr.Periods(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Periods() = %v, want [2 3]", got)
	}
	if _, _, ok := tr.Lookup(tagset.New(10, 11).Key()); ok {
		t.Error("Lookup found a coefficient from a pruned period")
	}

	// TopK ranks by descending J across the retained periods.
	top := tr.TopK(1)
	if len(top) != 1 || top[0].J != 0.7 {
		t.Fatalf("TopK(1) = %+v, want the J=0.7 report", top)
	}
	if all := tr.TopK(0); len(all) != 2 {
		t.Fatalf("TopK(0) returned %d coefficients, want 2", len(all))
	}
}
