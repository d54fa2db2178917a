package operators

import (
	"sync"

	"repro/internal/flight"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storm"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/telemetry"
)

// Partitioner maintains a sliding window over the tagsets routed to it
// (fields grouping on the whole tagset) and, on each repartition request,
// contributes a partial result to the Merger (Section 6.2).
//
// For DS the Partitioner runs only the first phase of Algorithm 1 — it
// emits its window's disjoint sets unmerged, so the Merger can union
// overlapping sets from different Partitioners into true connected
// components before packing them into k partitions. For the set-cover
// algorithms it builds k local partitions, which the Merger treats as input
// tagsets for the same algorithm.
type Partitioner struct {
	cfg    Config
	window tagsetWindow
	ctx    *storm.TaskContext

	// Repartitions counts how many partial results this instance produced.
	Repartitions int
}

// tagsetWindow abstracts the Partitioner's window: time-based or
// count-based (Section 6.2).
type tagsetWindow interface {
	Add(stream.Document)
	Len() int
	Snapshot() []stream.WeightedSet
}

// NewPartitioner returns a Partitioner bolt for the given configuration,
// using a count-based window when cfg.WindowCount is set and the time-based
// WindowSpan otherwise.
func NewPartitioner(cfg Config) *Partitioner {
	var w tagsetWindow
	if cfg.WindowCount > 0 {
		w = stream.NewCountWindow(cfg.WindowCount)
	} else {
		w = stream.NewSlidingWindow(cfg.WindowSpan)
	}
	return &Partitioner{cfg: cfg, window: w}
}

// Prepare implements storm.Bolt.
func (p *Partitioner) Prepare(ctx *storm.TaskContext) { p.ctx = ctx }

// Execute implements storm.Bolt.
func (p *Partitioner) Execute(t storm.Tuple, out storm.Collector) {
	switch t.Stream {
	case StreamDoc:
		msg := t.Values[0].(DocMsg)
		start := telemetry.Now()
		p.window.Add(stream.Document{Time: msg.Time, Tags: msg.Tags})
		if st := p.cfg.Stages; st != nil && msg.Ingest > 0 {
			st.DocPartition.Record(telemetry.Since(msg.Ingest))
		}
		if msg.Trace != 0 {
			p.cfg.Flight.Span(msg.Trace, flight.StagePartition, start, telemetry.Now())
		}
	case StreamRepartition:
		req := t.Values[0].(RepartitionReq)
		p.emitPartial(req.Epoch, out)
	}
}

func (p *Partitioner) emitPartial(epoch int, out storm.Collector) {
	p.Repartitions++
	snap := p.window.Snapshot()
	var sets []stream.WeightedSet
	switch p.cfg.Algorithm {
	case partition.DS, partition.DSHybrid:
		for _, c := range graph.Components(snap) {
			sets = append(sets, stream.WeightedSet{Tags: c.Tags, Count: c.Load})
		}
	default:
		res, err := partition.Build(snap, partition.Options{
			Algorithm: p.cfg.Algorithm,
			K:         p.cfg.K,
			Seed:      p.cfg.Seed + int64(p.ctx.Index) + int64(epoch)*31,
		})
		if err != nil {
			// Options are validated at pipeline construction; a failure here
			// is a programming error.
			panic(err)
		}
		for _, part := range res.Parts {
			if part.Tags.IsEmpty() {
				continue
			}
			sets = append(sets, stream.WeightedSet{Tags: part.Tags, Count: part.Load})
		}
	}
	out.Emit(storm.Tuple{Stream: StreamPartial, Values: []interface{}{PartialMsg{Epoch: epoch, Sets: sets}}})
}

// Merger combines the partial results of all P Partitioners of one epoch
// into the final k partitions using the same algorithm, announces them to
// the Disseminator together with the reference quality statistics, and
// serves Single-Addition requests against its copy of the current
// partitions (Sections 6.2 and 7.1).
//
// Execute takes an internal mutex, so PartitionsSnapshot and MergeCount
// are safe to call from other goroutines while a concurrent run is
// streaming.
type Merger struct {
	cfg Config
	ctx *storm.TaskContext
	mu  sync.Mutex

	pending map[int][]stream.WeightedSet // epoch -> collected partial sets
	arrived map[int]int                  // epoch -> partials received
	current *partition.Result

	// Merges counts completed epochs; Additions counts Single Additions.
	Merges    int
	Additions int
}

// NewMerger returns a Merger bolt.
func NewMerger(cfg Config) *Merger {
	return &Merger{
		cfg:     cfg,
		pending: make(map[int][]stream.WeightedSet),
		arrived: make(map[int]int),
	}
}

// Prepare implements storm.Bolt.
func (m *Merger) Prepare(ctx *storm.TaskContext) { m.ctx = ctx }

// PartitionsSnapshot returns a deep copy of the current partitions (nil
// before the first merge), taken under the bolt's lock.
func (m *Merger) PartitionsSnapshot() []partition.Partition {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.current == nil {
		return nil
	}
	out := make([]partition.Partition, len(m.current.Parts))
	for i, p := range m.current.Parts {
		out[i] = partition.Partition{Tags: append(tagset.Set(nil), p.Tags...), Load: p.Load}
	}
	return out
}

// MergeCount returns the number of completed merge epochs under the lock.
func (m *Merger) MergeCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Merges
}

// RestorePartitions installs checkpointed partitions as the Merger's
// current result — the recovery path. Call before the run starts; the
// Merger then serves Single-Addition requests against the restored
// assignment exactly as if it had merged it itself.
func (m *Merger) RestorePartitions(parts []partition.Partition, merges int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	copied := make([]partition.Partition, len(parts))
	for i, p := range parts {
		copied[i] = partition.Partition{Tags: append(tagset.Set(nil), p.Tags...), Load: p.Load}
	}
	m.current = &partition.Result{Algorithm: m.cfg.Algorithm, Parts: copied}
	m.Merges = merges
}

// Execute implements storm.Bolt.
func (m *Merger) Execute(t storm.Tuple, out storm.Collector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch t.Stream {
	case StreamPartial:
		msg := t.Values[0].(PartialMsg)
		m.pending[msg.Epoch] = append(m.pending[msg.Epoch], msg.Sets...)
		m.arrived[msg.Epoch]++
		if m.arrived[msg.Epoch] == m.cfg.P {
			m.merge(msg.Epoch, out)
		}
	case StreamAddition:
		req := t.Values[0].(AdditionReq)
		m.addSingle(req.Tags, out)
	}
}

func (m *Merger) merge(epoch int, out storm.Collector) {
	sets := m.pending[epoch]
	delete(m.pending, epoch)
	delete(m.arrived, epoch)

	res, err := partition.Build(sets, partition.Options{
		Algorithm: m.cfg.Algorithm,
		K:         m.activePartitions(sets),
		Seed:      m.cfg.Seed + int64(epoch)*131,
	})
	if err != nil {
		panic(err)
	}
	m.current = res
	m.Merges++
	q := partition.Evaluate(res, sets)
	parts := make([]partition.Partition, len(res.Parts))
	copy(parts, res.Parts)
	out.Emit(storm.Tuple{Stream: StreamPartitions, Values: []interface{}{
		PartitionsMsg{Epoch: epoch, Parts: parts, Quality: q},
	}})
}

// activePartitions implements topology scaling (Section 7.3): with
// AutoScaleLoad set, the number of partitions follows the window load so
// that each active Calculator receives roughly AutoScaleLoad documents;
// otherwise all K Calculators are used. The count never exceeds K — the
// maximum number of Calculator tasks is fixed when the topology is
// submitted, exactly as in Storm.
func (m *Merger) activePartitions(sets []stream.WeightedSet) int {
	if m.cfg.AutoScaleLoad <= 0 {
		return m.cfg.K
	}
	var total int64
	for _, ws := range sets {
		total += ws.Count
	}
	k := int((total + m.cfg.AutoScaleLoad - 1) / m.cfg.AutoScaleLoad)
	if k < 1 {
		k = 1
	}
	if k > m.cfg.K {
		k = m.cfg.K
	}
	return k
}

// addSingle places an uncovered tagset into the best partition and
// announces the decision. Requests arriving before the first merge are
// ignored (the Disseminator cannot have sent them, but be safe).
func (m *Merger) addSingle(tags tagset.Set, out storm.Collector) {
	if m.current == nil || tags.IsEmpty() {
		return
	}
	// Idempotency: if meanwhile covered, answer with the covering
	// partition. The one Disseminator can still ask twice: an install
	// resets its pendingAdd while a request may be in flight, and a merge
	// can cover the tagset before the request arrives.
	for i, p := range m.current.Parts {
		if tags.SubsetOf(p.Tags) {
			out.Emit(storm.Tuple{Stream: StreamAdditionRes, Values: []interface{}{
				AdditionRes{Tags: tags, Part: i},
			}})
			return
		}
	}
	idx := partition.PlaceSingleAddition(m.current, tags)
	if idx < 0 {
		return
	}
	if err := partition.Apply(m.current, idx, tags, 1); err != nil {
		panic(err)
	}
	m.Additions++
	out.Emit(storm.Tuple{Stream: StreamAdditionRes, Values: []interface{}{
		AdditionRes{Tags: tags, Part: idx},
	}})
}
