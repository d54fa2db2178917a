package storm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// listSpout emits the given values one per NextTuple call.
type listSpout struct {
	values []int
	pos    int
}

func (s *listSpout) Open(*TaskContext) {}
func (s *listSpout) NextTuple(out Collector) bool {
	if s.pos >= len(s.values) {
		return false
	}
	out.Emit(Tuple{Values: []interface{}{s.values[s.pos]}})
	s.pos++
	return true
}

// sink collects every received value; safe for concurrent executors.
type sink struct {
	mu   sync.Mutex
	got  []int
	ctx  *TaskContext
	byMe int
}

func (b *sink) Prepare(ctx *TaskContext) { b.ctx = ctx }
func (b *sink) Execute(t Tuple, _ Collector) {
	b.mu.Lock()
	b.got = append(b.got, t.Values[0].(int))
	b.byMe++
	b.mu.Unlock()
}

// doubler re-emits each int twice.
type doubler struct{}

func (d *doubler) Prepare(*TaskContext) {}
func (d *doubler) Execute(t Tuple, out Collector) {
	out.Emit(t)
	out.Emit(t)
}

func ints(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i
	}
	return v
}

func buildLinear(t *testing.T, nSink int, vals []int) (*Topology, []*sink) {
	t.Helper()
	sinks := make([]*sink, 0, nSink)
	b := NewBuilder()
	b.Spout("src", func() Spout { return &listSpout{values: vals} }, 1)
	b.Bolt("sink", func() Bolt {
		s := &sink{}
		sinks = append(sinks, s)
		return s
	}, nSink).Shuffle("src")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp, sinks
}

func TestShuffleRoundRobin(t *testing.T) {
	tp, sinks := buildLinear(t, 3, ints(9))
	st := tp.RunSequential()
	total := 0
	for _, s := range sinks {
		if s.byMe != 3 {
			t.Errorf("task got %d tuples, want 3", s.byMe)
		}
		total += s.byMe
	}
	if total != 9 {
		t.Errorf("total = %d", total)
	}
	if emitted, _ := st.Totals(); emitted["src"] != 9 || st.Received("sink") != 9 {
		t.Errorf("stats: emitted=%d received=%d", emitted["src"], st.Received("sink"))
	}
}

func TestAllGroupingBroadcasts(t *testing.T) {
	var sinks []*sink
	b := NewBuilder()
	b.Spout("src", func() Spout { return &listSpout{values: ints(5)} }, 1)
	b.Bolt("sink", func() Bolt {
		s := &sink{}
		sinks = append(sinks, s)
		return s
	}, 4).All("src")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tp.RunSequential()
	for i, s := range sinks {
		if s.byMe != 5 {
			t.Errorf("task %d got %d tuples, want 5", i, s.byMe)
		}
	}
}

func TestFieldsGroupingConsistent(t *testing.T) {
	var sinks []*sink
	b := NewBuilder()
	vals := []int{1, 2, 3, 1, 2, 3, 1, 1}
	b.Spout("src", func() Spout { return &listSpout{values: vals} }, 1)
	b.Bolt("sink", func() Bolt {
		s := &sink{}
		sinks = append(sinks, s)
		return s
	}, 3).Fields("src", func(t Tuple) uint64 { return uint64(t.Values[0].(int)) })
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tp.RunSequential()
	// Each distinct value must land on exactly one task.
	owner := map[int]int{}
	for i, s := range sinks {
		for _, v := range s.got {
			if prev, ok := owner[v]; ok && prev != i {
				t.Errorf("value %d split between tasks %d and %d", v, prev, i)
			}
			owner[v] = i
		}
	}
	if len(owner) != 3 {
		t.Errorf("saw %d distinct values", len(owner))
	}
}

// directBolt forwards each tuple to a specific sink task by value parity.
type directBolt struct{ ctx *TaskContext }

func (d *directBolt) Prepare(ctx *TaskContext) { d.ctx = ctx }
func (d *directBolt) Execute(t Tuple, out Collector) {
	tasks := d.ctx.TasksOf("sink")
	out.EmitDirect(tasks[t.Values[0].(int)%len(tasks)], t)
}

func TestDirectGrouping(t *testing.T) {
	var sinks []*sink
	b := NewBuilder()
	b.Spout("src", func() Spout { return &listSpout{values: ints(10)} }, 1)
	b.Bolt("router", func() Bolt { return &directBolt{} }, 1).Shuffle("src")
	b.Bolt("sink", func() Bolt {
		s := &sink{}
		sinks = append(sinks, s)
		return s
	}, 2).Direct("router")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tp.RunSequential()
	for i, s := range sinks {
		if s.byMe != 5 {
			t.Errorf("sink %d got %d, want 5", i, s.byMe)
		}
		for _, v := range s.got {
			if v%2 != i {
				t.Errorf("sink %d received %d", i, v)
			}
		}
	}
}

func TestEmitDirectWithoutEdgePanics(t *testing.T) {
	var sinks []*sink
	b := NewBuilder()
	b.Spout("src", func() Spout { return &listSpout{values: ints(1)} }, 1)
	b.Bolt("router", func() Bolt { return &directBolt{} }, 1).Shuffle("src")
	b.Bolt("sink", func() Bolt {
		s := &sink{}
		sinks = append(sinks, s)
		return s
	}, 2).Shuffle("router") // not direct!
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("EmitDirect without direct edge did not panic")
		}
	}()
	tp.RunSequential()
}

func TestChainedBoltsAndStats(t *testing.T) {
	var sinks []*sink
	b := NewBuilder()
	b.Spout("src", func() Spout { return &listSpout{values: ints(10)} }, 1)
	b.Bolt("double", func() Bolt { return &doubler{} }, 2).Shuffle("src")
	b.Bolt("sink", func() Bolt {
		s := &sink{}
		sinks = append(sinks, s)
		return s
	}, 1).Shuffle("double")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := tp.RunSequential()
	if sinks[0].byMe != 20 {
		t.Errorf("sink got %d, want 20", sinks[0].byMe)
	}
	emitted, _ := st.Totals()
	if emitted["double"] != 20 || st.Received("double") != 10 {
		t.Errorf("double: emitted=%d received=%d", emitted["double"], st.Received("double"))
	}
}

func TestBuilderValidation(t *testing.T) {
	// No spout.
	b := NewBuilder()
	b.Bolt("only", func() Bolt { return &sink{} }, 1)
	if _, err := b.Build(); err == nil {
		t.Error("no-spout topology accepted")
	}
	// Empty.
	if _, err := NewBuilder().Build(); err == nil {
		t.Error("empty topology accepted")
	}
	// Unknown subscription.
	b = NewBuilder()
	b.Spout("src", func() Spout { return &listSpout{} }, 1)
	b.Bolt("s", func() Bolt { return &sink{} }, 1).Shuffle("ghost")
	if _, err := b.Build(); err == nil {
		t.Error("unknown source accepted")
	}
	// Duplicate names.
	b = NewBuilder()
	b.Spout("x", func() Spout { return &listSpout{} }, 1)
	b.Bolt("x", func() Bolt { return &sink{} }, 1)
	if _, err := b.Build(); err == nil {
		t.Error("duplicate name accepted")
	}
	// Nil fields key.
	b = NewBuilder()
	b.Spout("src", func() Spout { return &listSpout{} }, 1)
	b.Bolt("s", func() Bolt { return &sink{} }, 1).Fields("src", nil)
	if _, err := b.Build(); err == nil {
		t.Error("nil key accepted")
	}
	// Bad parallelism.
	b = NewBuilder()
	b.Spout("src", func() Spout { return &listSpout{} }, 0)
	if _, err := b.Build(); err == nil {
		t.Error("parallelism 0 accepted")
	}
}

// cleanupBolt counts tuples and emits a summary during Cleanup.
type cleanupBolt struct {
	n int
}

func (c *cleanupBolt) Prepare(*TaskContext)     {}
func (c *cleanupBolt) Execute(Tuple, Collector) { c.n++ }
func (c *cleanupBolt) Cleanup(out Collector)    { out.Emit(Tuple{Values: []interface{}{c.n}}) }

func TestCleanupEmissionsAreDelivered(t *testing.T) {
	var sinks []*sink
	b := NewBuilder()
	b.Spout("src", func() Spout { return &listSpout{values: ints(7)} }, 1)
	b.Bolt("counter", func() Bolt { return &cleanupBolt{} }, 1).Shuffle("src")
	b.Bolt("sink", func() Bolt {
		s := &sink{}
		sinks = append(sinks, s)
		return s
	}, 1).Shuffle("counter")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tp.RunSequential()
	if len(sinks[0].got) != 1 || sinks[0].got[0] != 7 {
		t.Errorf("cleanup summary = %v, want [7]", sinks[0].got)
	}
}

func TestRunConcurrentDeliversAll(t *testing.T) {
	var sinks []*sink
	var mu sync.Mutex
	b := NewBuilder()
	b.Spout("src", func() Spout { return &listSpout{values: ints(500)} }, 1)
	b.Bolt("double", func() Bolt { return &doubler{} }, 4).Shuffle("src")
	b.Bolt("sink", func() Bolt {
		s := &sink{}
		mu.Lock()
		sinks = append(sinks, s)
		mu.Unlock()
		return s
	}, 3).Shuffle("double")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := tp.RunConcurrent()
	total := 0
	for _, s := range sinks {
		total += s.byMe
	}
	if total != 1000 {
		t.Errorf("concurrent delivered %d, want 1000", total)
	}
	if st.Received("sink") != 1000 {
		t.Errorf("stats received = %d", st.Received("sink"))
	}
}

// echoBolt forwards tuples back to its own component once (a topology
// cycle), decrementing a TTL value.
type echoBolt struct{}

func (e *echoBolt) Prepare(*TaskContext) {}
func (e *echoBolt) Execute(t Tuple, out Collector) {
	ttl := t.Values[0].(int)
	if ttl > 0 {
		out.Emit(Tuple{Values: []interface{}{ttl - 1}})
	}
}

func TestCyclicTopologyTerminates(t *testing.T) {
	b := NewBuilder()
	b.Spout("src", func() Spout { return &listSpout{values: []int{5, 3}} }, 1)
	b.Bolt("echo", func() Bolt { return &echoBolt{} }, 2).Shuffle("src").Shuffle("echo")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := tp.RunSequential()
	// 5→4→3→2→1→0 and 3→2→1→0: received = 2 initial + 5 + 3 echoes = 10.
	if st.Received("echo") != 10 {
		t.Errorf("echo received %d, want 10", st.Received("echo"))
	}

	// Same cycle must terminate (not deadlock) concurrently.
	b2 := NewBuilder()
	b2.Spout("src", func() Spout { return &listSpout{values: []int{50, 30}} }, 1)
	b2.Bolt("echo", func() Bolt { return &echoBolt{} }, 2).Shuffle("src").Shuffle("echo")
	tp2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	st2 := tp2.RunConcurrent()
	if st2.Received("echo") != 82 {
		t.Errorf("concurrent echo received %d, want 82", st2.Received("echo"))
	}
}

func TestTasksOf(t *testing.T) {
	tp, _ := buildLinear(t, 3, ints(1))
	ctx := &TaskContext{topo: tp}
	if got := ctx.TasksOf("sink"); len(got) != 3 {
		t.Errorf("TasksOf(sink) = %v", got)
	}
	if got := ctx.TasksOf("nope"); got != nil {
		t.Errorf("TasksOf(nope) = %v", got)
	}
}

func TestParallelSpouts(t *testing.T) {
	var sinks []*sink
	b := NewBuilder()
	b.Spout("src", func() Spout { return &listSpout{values: ints(5)} }, 3)
	b.Bolt("sink", func() Bolt {
		s := &sink{}
		sinks = append(sinks, s)
		return s
	}, 1).Shuffle("src")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := tp.RunSequential()
	if sinks[0].byMe != 15 {
		t.Errorf("3 spout instances delivered %d tuples, want 15", sinks[0].byMe)
	}
	if emitted, _ := st.Totals(); emitted["src"] != 15 {
		t.Errorf("emitted = %d", emitted["src"])
	}

	// And concurrently.
	var csinks []*sink
	var mu sync.Mutex
	b2 := NewBuilder()
	b2.Spout("src", func() Spout { return &listSpout{values: ints(200)} }, 3)
	b2.Bolt("sink", func() Bolt {
		s := &sink{}
		mu.Lock()
		csinks = append(csinks, s)
		mu.Unlock()
		return s
	}, 2).Shuffle("src")
	tp2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	tp2.RunConcurrent()
	total := 0
	for _, s := range csinks {
		total += s.byMe
	}
	if total != 600 {
		t.Errorf("concurrent parallel spouts delivered %d, want 600", total)
	}
}

func TestGroupingStrings(t *testing.T) {
	kinds := []groupingKind{groupShuffle, groupAll, groupFields, groupDirect}
	want := []string{"shuffle", "all", "fields", "direct"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("%d.String() = %q, want %q", i, k.String(), want[i])
		}
	}
	if groupingKind(99).String() != "unknown" {
		t.Error("unknown kind string")
	}
}

// slowSink processes tuples with a tiny spin so the spout can outrun it.
type slowSink struct {
	processed int64 // atomic
	produced  *int64
	maxLag    int64 // atomic: max produced-processed observed
}

func (b *slowSink) Prepare(*TaskContext) {}
func (b *slowSink) Execute(t Tuple, _ Collector) {
	lag := atomic.LoadInt64(b.produced) - atomic.LoadInt64(&b.processed)
	for {
		cur := atomic.LoadInt64(&b.maxLag)
		if lag <= cur || atomic.CompareAndSwapInt64(&b.maxLag, cur, lag) {
			break
		}
	}
	atomic.AddInt64(&b.processed, 1)
}

// countingSpout emits n tuples, incrementing a shared counter per emission.
type countingSpout struct {
	n        int
	produced *int64
}

func (s *countingSpout) Open(*TaskContext) {}
func (s *countingSpout) NextTuple(out Collector) bool {
	if s.n == 0 {
		return false
	}
	s.n--
	atomic.AddInt64(s.produced, 1)
	out.Emit(Tuple{Values: []interface{}{0}})
	return true
}

// TestMaxSpoutPendingConfigurable pins the per-topology spout throttle: a
// low setting keeps the spout within the configured bound of the sink
// (small slack for the emit-then-wait window), every tuple still arrives,
// and the default is restored by a non-positive setting.
func TestMaxSpoutPendingConfigurable(t *testing.T) {
	const docs = 5000
	var produced int64
	sink := &slowSink{produced: &produced}
	b := NewBuilder()
	b.Spout("src", func() Spout { return &countingSpout{n: docs, produced: &produced} }, 1)
	b.Bolt("sink", func() Bolt { return sink }, 1).Shuffle("src")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := tp.MaxSpoutPending(); got != 4096 {
		t.Fatalf("default throttle = %d, want 4096", got)
	}
	tp.SetMaxSpoutPending(8)
	if got := tp.MaxSpoutPending(); got != 8 {
		t.Fatalf("throttle = %d after SetMaxSpoutPending(8)", got)
	}
	tp.RunConcurrent()

	if got := atomic.LoadInt64(&sink.processed); got != docs {
		t.Errorf("sink processed %d of %d tuples", got, docs)
	}
	// The spout checks the throttle after emitting, so it can overshoot by
	// the one in-flight emission; anything near the default would mean the
	// configured bound was ignored.
	if lag := atomic.LoadInt64(&sink.maxLag); lag > 16 {
		t.Errorf("max spout lead = %d with throttle 8", lag)
	}

	tp2, _ := buildLinear(t, 1, ints(16))
	tp2.SetMaxSpoutPending(8)
	tp2.SetMaxSpoutPending(0) // non-positive restores the default
	if got := tp2.MaxSpoutPending(); got != 4096 {
		t.Errorf("throttle after reset = %d, want 4096", got)
	}
}

// timeAfter returns a 60s deadline channel (helper for deadlock guards).
func timeAfter(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(60 * time.Second)
}

// TestMaxSpoutPendingOne pins the tightest throttle: with one tuple in
// flight at a time the wake threshold must still fire when the dataflow
// drains, or the spout sleeps forever (the lost-wakeup regression a
// floor-halved threshold would reintroduce).
func TestMaxSpoutPendingOne(t *testing.T) {
	tp, sinks := buildLinear(t, 1, ints(200))
	tp.SetMaxSpoutPending(1)
	done := make(chan struct{})
	go func() {
		tp.RunConcurrent()
		close(done)
	}()
	select {
	case <-done:
	case <-timeAfter(t):
		t.Fatal("run deadlocked with MaxSpoutPending(1)")
	}
	if sinks[0].byMe != 200 {
		t.Errorf("sink got %d tuples, want 200", sinks[0].byMe)
	}
}
