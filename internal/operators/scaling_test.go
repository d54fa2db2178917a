package operators

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/storm"
	"repro/internal/stream"
	"repro/internal/tagset"
)

func TestCountWindowPartitioner(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowCount = 3
	p := NewPartitioner(cfg)
	p.Prepare(&storm.TaskContext{})
	out := newCollector()
	for i := 0; i < 5; i++ {
		p.Execute(docTuple(stream.Millis(i), tagset.Tag(i)), out)
	}
	if p.window.Len() != 3 {
		t.Errorf("count window len = %d, want 3", p.window.Len())
	}
}

func TestAutoScaleValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AutoScaleLoad = -1
	if cfg.Validate() == nil {
		t.Error("negative AutoScaleLoad accepted")
	}
	cfg = DefaultConfig()
	cfg.WindowCount = -1
	if cfg.Validate() == nil {
		t.Error("negative WindowCount accepted")
	}
}

func TestMergerAutoScaleSizesPartitions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.P = 1
	cfg.K = 8
	cfg.AutoScaleLoad = 10 // one Calculator per 10 documents of window load
	m := NewMerger(cfg)
	m.Prepare(&storm.TaskContext{})
	out := newCollector()

	// Light window: load 25 → ceil(25/10) = 3 active partitions.
	sets := []stream.WeightedSet{
		{Tags: tagset.New(1, 2), Count: 10},
		{Tags: tagset.New(3, 4), Count: 10},
		{Tags: tagset.New(5, 6), Count: 5},
	}
	m.Execute(storm.Tuple{Stream: StreamPartial, Values: []interface{}{PartialMsg{Epoch: 1, Sets: sets}}}, out)
	msg := out.byStream(StreamPartitions)[0].Values[0].(PartitionsMsg)
	if len(msg.Parts) != 3 {
		t.Errorf("light window produced %d partitions, want 3", len(msg.Parts))
	}

	// Heavy window: load 200 → would need 20, capped at K=8.
	heavy := []stream.WeightedSet{{Tags: tagset.New(1, 2), Count: 200}}
	m.Execute(storm.Tuple{Stream: StreamPartial, Values: []interface{}{PartialMsg{Epoch: 2, Sets: heavy}}}, out)
	msg = out.byStream(StreamPartitions)[1].Values[0].(PartitionsMsg)
	if len(msg.Parts) != 8 {
		t.Errorf("heavy window produced %d partitions, want K=8", len(msg.Parts))
	}

	// Empty window: at least one partition.
	m.Execute(storm.Tuple{Stream: StreamPartial, Values: []interface{}{PartialMsg{Epoch: 3}}}, out)
	msg = out.byStream(StreamPartitions)[2].Values[0].(PartitionsMsg)
	if len(msg.Parts) != 1 {
		t.Errorf("empty window produced %d partitions, want 1", len(msg.Parts))
	}
}

func TestDisseminatorRoutesOnlyToActiveCalculators(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 4
	d, out := buildDissem(cfg)
	// Install only 2 partitions (auto-scaled down from K=4).
	installPartitions(d, out,
		partition.Partition{Tags: tagset.New(1)},
		partition.Partition{Tags: tagset.New(2)},
	)
	d.Execute(docTuple(10, 1, 2), out)
	if len(out.direct[2]) != 0 || len(out.direct[3]) != 0 {
		t.Error("idle calculators received notifications")
	}
	if len(out.direct[0]) != 1 || len(out.direct[1]) != 1 {
		t.Error("active calculators not notified")
	}
}

// TestAutoScalePipelineEndToEnd runs a small pipeline with auto-scaling and
// verifies that only a prefix of calculators observed traffic.
func TestAutoScalePipelineEndToEnd(t *testing.T) {
	// Use operators directly through a storm topology via the core package
	// in core_test; here assert the merger's partition count stays sane
	// across repeated merges with growing load.
	cfg := DefaultConfig()
	cfg.P = 1
	cfg.K = 10
	cfg.AutoScaleLoad = 100
	m := NewMerger(cfg)
	m.Prepare(&storm.TaskContext{})
	out := newCollector()
	for epoch, load := range []int64{50, 500, 5000} {
		sets := []stream.WeightedSet{{Tags: tagset.New(1, 2), Count: load}}
		m.Execute(storm.Tuple{Stream: StreamPartial, Values: []interface{}{PartialMsg{Epoch: epoch + 1, Sets: sets}}}, out)
	}
	msgs := out.byStream(StreamPartitions)
	sizes := []int{len(msgs[0].Values[0].(PartitionsMsg).Parts),
		len(msgs[1].Values[0].(PartitionsMsg).Parts),
		len(msgs[2].Values[0].(PartitionsMsg).Parts)}
	if sizes[0] != 1 || sizes[1] != 5 || sizes[2] != 10 {
		t.Errorf("auto-scale sizes = %v, want [1 5 10]", sizes)
	}
}
