package storm

import (
	"sync"
	"sync/atomic"
)

// envelope is a tuple addressed to a task.
type envelope struct {
	to TaskID
	t  Tuple
}

// seqCollector routes emissions into the sequential executor's FIFO queue.
type seqCollector struct {
	ex   *seqExecutor
	task *task
}

func (c *seqCollector) Emit(t Tuple) {
	n := c.task.node
	c.ex.tp.stats.addEmit(n.name, 1)
	for _, e := range n.outs {
		for _, dst := range e.route(t, c.task.ctx.Index) {
			c.ex.queue = append(c.ex.queue, envelope{to: dst, t: t})
		}
	}
}

func (c *seqCollector) EmitDirect(dst TaskID, t Tuple) {
	c.ex.tp.mustDirect(c.task, dst)
	c.ex.tp.stats.addEmit(c.task.node.name, 1)
	c.ex.queue = append(c.ex.queue, envelope{to: dst, t: t})
}

// mustDirect panics when a component emits directly to a task it has no
// direct-grouping edge to — a topology wiring bug.
func (tp *Topology) mustDirect(from *task, dst TaskID) {
	if int(dst) < 0 || int(dst) >= len(tp.tasks) {
		panic("storm: EmitDirect to unknown task")
	}
	if !directEdgeTo(from.node, tp.tasks[dst].node) {
		panic("storm: EmitDirect from " + from.node.name + " to " +
			tp.tasks[dst].node.name + " without direct grouping")
	}
}

type seqExecutor struct {
	tp    *Topology
	queue []envelope
}

// RunSequential executes the topology deterministically on the calling
// goroutine: spouts are polled round-robin whenever the tuple queue drains,
// and every tuple is processed in FIFO order. When all spouts are
// exhausted and the queue is empty, bolts with a Cleanup method are drained
// in declaration order (their emissions are processed too). The method
// returns the topology's stats for convenience.
func (tp *Topology) RunSequential() *Stats {
	ex := &seqExecutor{tp: tp}

	// Prepare/Open every task.
	for _, t := range tp.tasks {
		if t.spout != nil {
			t.spout.Open(&t.ctx)
		} else {
			t.bolt.Prepare(&t.ctx)
		}
	}

	live := make(map[*task]bool)
	var spouts []*task
	for _, t := range tp.tasks {
		if t.spout != nil {
			live[t] = true
			spouts = append(spouts, t)
		}
	}

	for {
		ex.drain()
		any := false
		for _, s := range spouts {
			if !live[s] {
				continue
			}
			if !s.spout.NextTuple(&seqCollector{ex: ex, task: s}) {
				live[s] = false
			} else {
				any = true
			}
			ex.drain()
		}
		if !any {
			break
		}
	}

	// Cleanup phase, declaration order, draining between components.
	for _, n := range tp.nodes {
		for _, id := range n.tasks {
			t := tp.tasks[id]
			if t.bolt == nil {
				continue
			}
			if cl, ok := t.bolt.(Cleaner); ok {
				cl.Cleanup(&seqCollector{ex: ex, task: t})
				ex.drain()
			}
		}
	}
	return tp.stats
}

func (ex *seqExecutor) drain() {
	for len(ex.queue) > 0 {
		env := ex.queue[0]
		ex.queue = ex.queue[1:]
		t := ex.tp.tasks[env.to]
		ex.tp.stats.addRecv(env.to)
		if t.bolt != nil {
			t.bolt.Execute(env.t, &seqCollector{ex: ex, task: t})
		}
	}
	if cap(ex.queue) > 4096 && len(ex.queue) == 0 {
		ex.queue = nil
	}
}

// mailbox is an unbounded FIFO with blocking receive, so topology cycles
// cannot deadlock on bounded channels. Consumed slots are zeroed as they are
// read and the slice restarts from the front whenever it drains (dropping
// oversized backing arrays, mirroring seqExecutor.drain), so a long-running
// service's mailboxes never keep envelope payloads — tagset slices,
// coefficient batches — reachable after processing.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []envelope
	head   int // next slot to read; items[:head] are consumed and zeroed
	closed bool

	stats *Stats // depth high-water and compaction telemetry
	task  TaskID
}

func newMailbox(stats *Stats, task TaskID) *mailbox {
	m := &mailbox{stats: stats, task: task}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(e envelope) {
	m.mu.Lock()
	m.items = append(m.items, e)
	depth := int64(len(m.items) - m.head)
	m.mu.Unlock()
	m.stats.noteMailboxDepth(m.task, depth)
	m.cond.Signal()
}

func (m *mailbox) get() (envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head == len(m.items) && !m.closed {
		m.cond.Wait()
	}
	if m.head == len(m.items) {
		return envelope{}, false
	}
	e := m.items[m.head]
	m.items[m.head] = envelope{}
	m.head++
	switch {
	case m.head == len(m.items):
		if cap(m.items) > 4096 {
			m.items = nil
		} else {
			m.items = m.items[:0]
		}
		m.head = 0
	case m.head >= 1024 && m.head*2 >= len(m.items):
		// Steady backlog: the queue never momentarily drains, so the dead
		// prefix would otherwise grow (and be copied by every append
		// realloc) forever. Slide the live window to the front once the
		// prefix dominates — amortized O(1) per tuple — and zero the
		// vacated tail so the moved-from slots don't pin payloads.
		n := copy(m.items, m.items[m.head:])
		for i := n; i < len(m.items); i++ {
			m.items[i] = envelope{}
		}
		m.items = m.items[:n]
		m.head = 0
		atomic.AddInt64(&m.stats.mailboxCompact, 1)
	}
	return e, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// conCollector routes emissions into task mailboxes, maintaining the
// in-flight counter used for quiescence detection.
type conCollector struct {
	ex   *conExecutor
	task *task
}

func (c *conCollector) Emit(t Tuple) {
	n := c.task.node
	c.ex.tp.stats.addEmit(n.name, 1)
	for _, e := range n.outs {
		for _, dst := range e.route(t, c.task.ctx.Index) {
			c.ex.send(dst, t)
		}
	}
}

func (c *conCollector) EmitDirect(dst TaskID, t Tuple) {
	c.ex.tp.mustDirect(c.task, dst)
	c.ex.tp.stats.addEmit(c.task.node.name, 1)
	c.ex.send(dst, t)
}

// defaultMaxSpoutPending is the default bound on unprocessed tuples in
// flight before spouts are throttled — the analogue of Storm's
// max.spout.pending. Without it a fast spout floods the topology and
// control loops (repartition requests, partition installs) lag arbitrarily
// far behind the data. SetMaxSpoutPending overrides it per topology.
const defaultMaxSpoutPending = 4096

// SetMaxSpoutPending sets this topology's spout throttle: the concurrent
// executor blocks spouts while at least n tuples are in flight. n <= 0
// restores the default (4096). Call before the run starts; the value is
// read once at StartConcurrent.
func (tp *Topology) SetMaxSpoutPending(n int) {
	if n <= 0 {
		n = defaultMaxSpoutPending
	}
	tp.maxPending = n
}

// MaxSpoutPending returns the topology's spout throttle.
func (tp *Topology) MaxSpoutPending() int {
	if tp.maxPending <= 0 {
		return defaultMaxSpoutPending
	}
	return tp.maxPending
}

type conExecutor struct {
	tp      *Topology
	pending int64 // spout throttle, frozen from the topology at start
	wakeAt  int64 // broadcast threshold: ceil(pending/2), >= 1 so a
	// throttle of 1 still wakes when the dataflow fully drains
	boxes    []*mailbox
	inflight int64
	quiet    chan struct{} // closed... signalled via checkQuiet
	quietMu  sync.Mutex
	spoutsWG sync.WaitGroup
	spoutsDn int32

	// throttle parks spouts. Stats.parked counts the spouts registered on
	// it (incremented under throttleMu before they re-check and park), so
	// the per-tuple done() path can skip the lock and broadcast entirely
	// while nobody is throttled — the steady state of a non-saturated run.
	throttleMu sync.Mutex
	throttle   *sync.Cond
}

func (ex *conExecutor) send(dst TaskID, t Tuple) {
	atomic.AddInt64(&ex.inflight, 1)
	ex.boxes[dst].put(envelope{to: dst, t: t})
}

func (ex *conExecutor) done(n int64) {
	left := atomic.AddInt64(&ex.inflight, -n)
	if left == 0 && atomic.LoadInt32(&ex.spoutsDn) == 1 {
		ex.signalQuiet()
	}
	if left < ex.wakeAt && atomic.LoadInt64(&ex.tp.stats.parked) > 0 {
		// The broadcast must hold throttleMu: a spout that has registered
		// but not yet parked in Wait would otherwise miss it and — if this
		// was the last in-flight tuple — sleep forever. A spout not yet
		// registered is safe to skip: it re-checks the counter under the
		// lock after registering, and this decrement happened before that.
		ex.throttleMu.Lock()
		ex.throttle.Broadcast()
		ex.throttleMu.Unlock()
	}
}

// waitBelowPending blocks spouts while the in-flight tuple count is at the
// cap. Workers always drain independently, so this cannot deadlock.
func (ex *conExecutor) waitBelowPending() {
	if atomic.LoadInt64(&ex.inflight) < ex.pending {
		return
	}
	if h := ex.tp.satHook; h != nil {
		h()
	}
	ex.throttleMu.Lock()
	atomic.AddInt64(&ex.tp.stats.parked, 1)
	for atomic.LoadInt64(&ex.inflight) >= ex.pending {
		ex.throttle.Wait()
	}
	atomic.AddInt64(&ex.tp.stats.parked, -1)
	ex.throttleMu.Unlock()
}

func (ex *conExecutor) signalQuiet() {
	ex.quietMu.Lock()
	select {
	case <-ex.quiet:
	default:
		close(ex.quiet)
	}
	ex.quietMu.Unlock()
}

// Run is a handle on a topology started with StartConcurrent: the dataflow
// keeps running in the background while the caller is free to read the
// topology's thread-safe state (Stats, and any bolt state the bolts
// themselves guard). Wait blocks until the run has fully drained.
type Run struct {
	tp    *Topology
	done  chan struct{}
	stats *Stats
}

// Done returns a channel closed when the run has fully drained (spouts
// exhausted, dataflow quiescent, Cleanup complete).
func (r *Run) Done() <-chan struct{} { return r.done }

// Running reports whether the dataflow is still in flight.
func (r *Run) Running() bool {
	select {
	case <-r.done:
		return false
	default:
		return true
	}
}

// Wait blocks until the run completes and returns the topology's stats.
func (r *Run) Wait() *Stats {
	<-r.done
	return r.stats
}

// RunConcurrent executes the topology with one goroutine per task. Spout
// tasks run their own loops; bolt tasks process their mailboxes. After all
// spouts finish and the dataflow quiesces, the workers stop and Cleanup
// runs single-threaded (its emissions are processed sequentially), matching
// RunSequential's semantics.
func (tp *Topology) RunConcurrent() *Stats {
	return tp.StartConcurrent().Wait()
}

// StartConcurrent launches the concurrent executor in the background and
// returns immediately with a handle. While the run is live, the topology's
// Stats may be read at any time (they are internally locked); bolts that
// expose snapshot methods guarded by their own locks may likewise be
// queried mid-run — this is the read path the live query service uses.
func (tp *Topology) StartConcurrent() *Run {
	ex := &conExecutor{tp: tp, pending: int64(tp.MaxSpoutPending()), quiet: make(chan struct{})}
	ex.wakeAt = (ex.pending + 1) / 2
	ex.throttle = sync.NewCond(&ex.throttleMu)
	ex.boxes = make([]*mailbox, len(tp.tasks))
	for i := range ex.boxes {
		ex.boxes[i] = newMailbox(tp.stats, TaskID(i))
	}

	for _, t := range tp.tasks {
		if t.spout != nil {
			t.spout.Open(&t.ctx)
		} else {
			t.bolt.Prepare(&t.ctx)
		}
	}

	var workersWG sync.WaitGroup
	for _, t := range tp.tasks {
		if t.bolt == nil {
			continue
		}
		workersWG.Add(1)
		go func(t *task) {
			defer workersWG.Done()
			col := &conCollector{ex: ex, task: t}
			for {
				env, ok := ex.boxes[t.ctx.Task].get()
				if !ok {
					return
				}
				tp.stats.addRecv(env.to)
				t.bolt.Execute(env.t, col)
				ex.done(1)
			}
		}(t)
	}

	for _, t := range tp.tasks {
		if t.spout == nil {
			continue
		}
		ex.spoutsWG.Add(1)
		go func(t *task) {
			defer ex.spoutsWG.Done()
			col := &conCollector{ex: ex, task: t}
			for t.spout.NextTuple(col) {
				ex.waitBelowPending()
			}
		}(t)
	}

	r := &Run{tp: tp, done: make(chan struct{}), stats: tp.stats}
	go func() {
		defer close(r.done)
		ex.spoutsWG.Wait()
		atomic.StoreInt32(&ex.spoutsDn, 1)
		if atomic.LoadInt64(&ex.inflight) == 0 {
			ex.signalQuiet()
		}
		<-ex.quiet

		for _, b := range ex.boxes {
			b.close()
		}
		workersWG.Wait()

		// Single-threaded cleanup phase reusing the sequential machinery.
		sq := &seqExecutor{tp: tp}
		for _, n := range tp.nodes {
			for _, id := range n.tasks {
				t := tp.tasks[id]
				if t.bolt == nil {
					continue
				}
				if cl, ok := t.bolt.(Cleaner); ok {
					cl.Cleanup(&seqCollector{ex: sq, task: t})
					sq.drain()
				}
			}
		}
	}()
	return r
}
