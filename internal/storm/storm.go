// Package storm is an in-process reproduction of the Storm stream-processing
// substrate the paper builds on (Section 6.1): topologies of spouts (stream
// sources) and bolts (operators), each with a configurable number of
// parallel task instances, connected by the five Storm grouping rules —
// shuffle, all, fields, local and direct.
//
// Two executors are provided. The sequential executor runs the whole
// topology on one goroutine with a FIFO tuple queue: deterministic,
// repeatable, and exactly sufficient for the paper's metrics, which are
// logical message counts rather than wall-clock timings. The concurrent
// executor runs every task on its own goroutine with unbounded mailboxes
// (cycles in the topology — present in the paper's design, where
// Disseminators talk back to Merger and Partitioners — therefore cannot
// deadlock) and detects quiescence with an in-flight tuple counter. The
// concurrent executor can also be started in the background
// (StartConcurrent), returning a Run handle for live-state reads while
// the dataflow is in flight.
//
// Shuffle grouping distributes round-robin per producer task, which meets
// Storm's "approximately equal" contract while keeping runs deterministic.
// Local grouping degenerates to shuffle in a single process, as documented.
package storm

import (
	"fmt"
	"sync/atomic"
)

// Tuple is the unit of dataflow: a named list of values, tagged with the
// logical stream it travels on (bolts may emit multiple streams).
type Tuple struct {
	Stream string
	Values []interface{}
}

// Collector lets a spout or bolt emit tuples to its subscribers.
type Collector interface {
	// Emit routes t to every subscribed consumer according to the
	// grouping declared on each subscription edge.
	Emit(t Tuple)
	// EmitDirect delivers t to one specific task of a consumer component
	// that subscribed with direct grouping.
	EmitDirect(task TaskID, t Tuple)
}

// TaskID globally identifies one parallel instance of a component.
type TaskID int

// Spout produces the input stream. NextTuple emits zero or more tuples and
// reports whether more input remains; returning false ends the stream.
type Spout interface {
	Open(ctx *TaskContext)
	NextTuple(out Collector) bool
}

// Bolt consumes tuples and may emit new ones.
type Bolt interface {
	Prepare(ctx *TaskContext)
	Execute(t Tuple, out Collector)
}

// Cleaner is an optional interface for bolts needing teardown (e.g. final
// flushes) when the topology drains.
type Cleaner interface {
	Cleanup(out Collector)
}

// TaskContext describes one task instance to the component running in it.
type TaskContext struct {
	Component string
	Task      TaskID // global id
	Index     int    // instance index within the component
	Parallel  int    // number of instances of the component

	topo *Topology
}

// TasksOf returns the task ids of the named component, in instance order.
// It returns nil for unknown components, and for contexts built without a
// topology (unit tests driving a bolt directly).
func (c *TaskContext) TasksOf(component string) []TaskID {
	if c.topo == nil {
		return nil
	}
	n := c.topo.components[component]
	if n == nil {
		return nil
	}
	out := make([]TaskID, len(n.tasks))
	copy(out, n.tasks)
	return out
}

// grouping is one subscription rule on an edge.
type groupingKind int

const (
	groupShuffle groupingKind = iota
	groupAll
	groupFields
	groupDirect
	groupLocal
)

func (g groupingKind) String() string {
	switch g {
	case groupShuffle:
		return "shuffle"
	case groupAll:
		return "all"
	case groupFields:
		return "fields"
	case groupDirect:
		return "direct"
	case groupLocal:
		return "local"
	}
	return "unknown"
}

// KeyFunc extracts the routing key for fields grouping.
type KeyFunc func(Tuple) uint64

type edge struct {
	from, to *node
	kind     groupingKind
	key      KeyFunc
	rr       []atomic.Uint32 // per-producer-task round-robin cursor (shuffle/local)
}

type node struct {
	name     string
	parallel int
	spout    func() Spout
	bolt     func() Bolt
	tasks    []TaskID
	outs     []*edge
	ins      []*edge
}

// pendingSub is a subscription recorded at declaration time and resolved at
// Build, so components may subscribe to components declared later (the
// paper's topology contains cycles).
type pendingSub struct {
	to   *node
	from string
	kind groupingKind
	key  KeyFunc
}

// Builder assembles a topology.
type Builder struct {
	nodes []*node
	byNam map[string]*node
	subs  []pendingSub
	errs  []error
}

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder {
	return &Builder{byNam: make(map[string]*node)}
}

// Node configures the subscriptions of a declared component.
type Node struct {
	b *Builder
	n *node
}

func (b *Builder) add(name string, parallel int) *node {
	if parallel < 1 {
		b.errs = append(b.errs, fmt.Errorf("storm: component %q parallelism %d", name, parallel))
		parallel = 1
	}
	if _, dup := b.byNam[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("storm: duplicate component %q", name))
	}
	n := &node{name: name, parallel: parallel}
	b.nodes = append(b.nodes, n)
	b.byNam[name] = n
	return n
}

// Spout declares a stream source with the given parallelism. The factory is
// invoked once per task instance.
func (b *Builder) Spout(name string, factory func() Spout, parallel int) *Node {
	n := b.add(name, parallel)
	n.spout = factory
	return &Node{b: b, n: n}
}

// Bolt declares an operator with the given parallelism. The factory is
// invoked once per task instance.
func (b *Builder) Bolt(name string, factory func() Bolt, parallel int) *Node {
	n := b.add(name, parallel)
	n.bolt = factory
	return &Node{b: b, n: n}
}

func (nd *Node) subscribe(from string, kind groupingKind, key KeyFunc) *Node {
	nd.b.subs = append(nd.b.subs, pendingSub{to: nd.n, from: from, kind: kind, key: key})
	return nd
}

// Shuffle subscribes with shuffle grouping (round-robin per producer task).
func (nd *Node) Shuffle(from string) *Node { return nd.subscribe(from, groupShuffle, nil) }

// All subscribes with all grouping (broadcast to every task).
func (nd *Node) All(from string) *Node { return nd.subscribe(from, groupAll, nil) }

// Fields subscribes with fields grouping on the given key function: tuples
// with equal keys always reach the same task.
func (nd *Node) Fields(from string, key KeyFunc) *Node {
	if key == nil {
		nd.b.errs = append(nd.b.errs, fmt.Errorf("storm: %q fields-subscribes to %q with nil key", nd.n.name, from))
		return nd
	}
	return nd.subscribe(from, groupFields, key)
}

// Direct subscribes with direct grouping: the producer addresses individual
// tasks via EmitDirect.
func (nd *Node) Direct(from string) *Node { return nd.subscribe(from, groupDirect, nil) }

// Local subscribes with local grouping; in-process it behaves as shuffle.
func (nd *Node) Local(from string) *Node { return nd.subscribe(from, groupLocal, nil) }

// Topology is a built, runnable operator graph.
type Topology struct {
	nodes      []*node
	components map[string]*node
	tasks      []*task
	stats      *Stats
	maxPending int // spout throttle; 0 means the default

	// satHook, when set, is called each time a spout is about to park on
	// the throttle. Set before the run starts (read once at
	// StartConcurrent); the hook must be cheap and non-blocking — it runs
	// on the spout goroutine.
	satHook func()
}

// SetThrottleHook installs a callback invoked whenever a spout parks on
// the max-spout-pending throttle. Call before the run starts.
func (tp *Topology) SetThrottleHook(f func()) { tp.satHook = f }

// task is one runtime instance.
type task struct {
	ctx   TaskContext
	node  *node
	spout Spout
	bolt  Bolt
}

// Build finalises the topology, resolving subscriptions and instantiating
// one task per declared instance. It returns the accumulated declaration
// errors, if any.
func (b *Builder) Build() (*Topology, error) {
	for _, s := range b.subs {
		src, ok := b.byNam[s.from]
		if !ok {
			b.errs = append(b.errs, fmt.Errorf("storm: %q subscribes to unknown %q", s.to.name, s.from))
			continue
		}
		e := &edge{from: src, to: s.to, kind: s.kind, key: s.key}
		src.outs = append(src.outs, e)
		s.to.ins = append(s.to.ins, e)
	}
	b.subs = nil
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("storm: empty topology")
	}
	hasSpout := false
	tp := &Topology{components: make(map[string]*node)}
	for _, n := range b.nodes {
		if n.spout != nil {
			hasSpout = true
		}
		tp.components[n.name] = n
		for i := 0; i < n.parallel; i++ {
			id := TaskID(len(tp.tasks))
			n.tasks = append(n.tasks, id)
			t := &task{
				ctx:  TaskContext{Component: n.name, Task: id, Index: i, Parallel: n.parallel, topo: tp},
				node: n,
			}
			if n.spout != nil {
				t.spout = n.spout()
			} else {
				t.bolt = n.bolt()
			}
			tp.tasks = append(tp.tasks, t)
		}
		for _, e := range n.outs {
			e.rr = make([]atomic.Uint32, n.parallel)
		}
	}
	if !hasSpout {
		return nil, fmt.Errorf("storm: topology has no spout")
	}
	tp.nodes = b.nodes
	tp.stats = newStats(tp)
	return tp, nil
}

// Stats counts dataflow volumes per component and per task. The counters
// are lock-free atomics over maps frozen at Build time: every tuple on the
// hot path costs two atomic adds instead of two global mutex acquisitions,
// so the dataflow does not serialize on its own bookkeeping as component
// parallelism grows.
type Stats struct {
	emitted  map[string]*atomic.Int64 // per component; map immutable after Build
	received map[string]*atomic.Int64 // per component; map immutable after Build
	perTask  []atomic.Int64           // indexed by TaskID
	names    []string

	// Mailbox pressure, populated by the concurrent executor only: the
	// high-water queue depth per task, and the total number of steady-
	// backlog compactions (dead-prefix slides) across all mailboxes.
	mailboxHW      []atomic.Int64 // indexed by TaskID
	mailboxCompact atomic.Int64

	// parked is the number of spouts parked on the throttle right now
	// (concurrent executor only). A spout parked while no document makes
	// progress is the signature of a stalled consumer.
	parked atomic.Int64
}

func newStats(tp *Topology) *Stats {
	s := &Stats{
		emitted:   make(map[string]*atomic.Int64, len(tp.nodes)),
		received:  make(map[string]*atomic.Int64, len(tp.nodes)),
		perTask:   make([]atomic.Int64, len(tp.tasks)),
		names:     make([]string, len(tp.tasks)),
		mailboxHW: make([]atomic.Int64, len(tp.tasks)),
	}
	for _, n := range tp.nodes {
		s.emitted[n.name] = new(atomic.Int64)
		s.received[n.name] = new(atomic.Int64)
	}
	for i, t := range tp.tasks {
		s.names[i] = t.ctx.Component
	}
	return s
}

func (s *Stats) addEmit(component string, n int64) {
	s.emitted[component].Add(n)
}

func (s *Stats) addRecv(task TaskID) {
	s.received[s.names[task]].Add(1)
	s.perTask[task].Add(1)
}

// Emitted returns the number of tuples emitted by the named component.
func (s *Stats) Emitted(component string) int64 {
	c := s.emitted[component]
	if c == nil {
		return 0
	}
	return c.Load()
}

// Received returns the number of tuples received by the named component.
func (s *Stats) Received(component string) int64 {
	c := s.received[component]
	if c == nil {
		return 0
	}
	return c.Load()
}

// Totals returns copies of the per-component emitted and received counter
// maps (components that moved no tuples are omitted). Like the
// single-component getters it is safe to call while a concurrent run is in
// flight.
func (s *Stats) Totals() (emitted, received map[string]int64) {
	emitted = make(map[string]int64, len(s.emitted))
	for k, c := range s.emitted {
		if v := c.Load(); v != 0 {
			emitted[k] = v
		}
	}
	received = make(map[string]int64, len(s.received))
	for k, c := range s.received {
		if v := c.Load(); v != 0 {
			received[k] = v
		}
	}
	return emitted, received
}

// noteMailboxDepth records a post-enqueue queue depth for a task,
// keeping the high-water mark.
func (s *Stats) noteMailboxDepth(task TaskID, depth int64) {
	for {
		cur := s.mailboxHW[task].Load()
		if depth <= cur || s.mailboxHW[task].CompareAndSwap(cur, depth) {
			return
		}
	}
}

// MailboxHighWater returns the per-task high-water mailbox depths of the
// named component, in instance order. All zeros under the sequential
// executor, which has no mailboxes.
func (s *Stats) MailboxHighWater(tp *Topology, component string) []int64 {
	n := tp.components[component]
	if n == nil {
		return nil
	}
	out := make([]int64, len(n.tasks))
	for i, id := range n.tasks {
		out[i] = s.mailboxHW[id].Load()
	}
	return out
}

// MailboxCompactions returns the total number of steady-backlog mailbox
// compactions across all tasks.
func (s *Stats) MailboxCompactions() int64 {
	return s.mailboxCompact.Load()
}

// SpoutsParked returns the number of spouts parked on the max-spout-pending
// cap right now (0 under the sequential executor). A wedged consumer parks
// the spout once and keeps it parked, so this gauge stays up for the whole
// stall while the park itself happens only once.
func (s *Stats) SpoutsParked() int64 {
	return s.parked.Load()
}

// TaskReceived returns per-task received counts for the named component.
func (s *Stats) TaskReceived(tp *Topology, component string) []int64 {
	n := tp.components[component]
	if n == nil {
		return nil
	}
	out := make([]int64, len(n.tasks))
	for i, id := range n.tasks {
		out[i] = s.perTask[id].Load()
	}
	return out
}

// Stats exposes the topology's dataflow counters.
func (tp *Topology) Stats() *Stats { return tp.stats }

// route computes the destination tasks of t on edge e for producer task
// index fromIdx. Direct edges route nothing here (EmitDirect addresses them).
func (e *edge) route(t Tuple, fromIdx int) []TaskID {
	switch e.kind {
	case groupShuffle, groupLocal:
		i := e.rr[fromIdx].Add(1)
		return e.to.tasks[int(i)%len(e.to.tasks) : int(i)%len(e.to.tasks)+1]
	case groupAll:
		return e.to.tasks
	case groupFields:
		k := e.key(t)
		return e.to.tasks[int(k%uint64(len(e.to.tasks))) : int(k%uint64(len(e.to.tasks)))+1]
	case groupDirect:
		return nil
	}
	return nil
}

// directEdgeTo reports whether producer node n has a direct edge covering
// the given destination task.
func directEdgeTo(n *node, dest *node) bool {
	for _, e := range n.outs {
		if e.to == dest && e.kind == groupDirect {
			return true
		}
	}
	return false
}
