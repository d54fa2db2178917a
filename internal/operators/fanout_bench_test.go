package operators

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/storm"
	"repro/internal/tagset"
)

// flushSpout emits n period flushes from a fixed pre-built pool, cycling.
// One NextTuple call emits one flush — a single CoeffBatch tuple with
// Tracker parallelism 1, or its per-task sub-batches — so ns/op compares
// the same logical work across task counts.
type flushSpout struct {
	pool [][]storm.Tuple
	n    int
	i    int
}

func (s *flushSpout) Open(*storm.TaskContext) {}
func (s *flushSpout) NextTuple(out storm.Collector) bool {
	if s.n == 0 {
		return false
	}
	s.n--
	for _, t := range s.pool[s.i%len(s.pool)] {
		out.Emit(t)
	}
	s.i++
	return true
}

// fanoutFlushPool pre-builds Calculator period flushes exactly as
// Calculator.flush would emit them for the given Tracker parallelism:
// flushes of batchLen coefficients each, split into route-hashed
// sub-batches when tasks > 1.
func fanoutFlushPool(tasks, flushes, batchLen int) [][]storm.Tuple {
	rng := rand.New(rand.NewSource(17))
	pool := make([][]storm.Tuple, flushes)
	for f := range pool {
		period := int64(1 + f/64)
		coeffs := make([]jaccard.Coefficient, batchLen)
		for i := range coeffs {
			a := tagset.Tag(2 * rng.Intn(1<<15))
			coeffs[i] = jaccard.Coefficient{Tags: tagset.New(a, a+1), J: rng.Float64(), CN: int64(1 + rng.Intn(50))}
		}
		if tasks <= 1 {
			pool[f] = []storm.Tuple{{Stream: StreamCoeff, Values: []interface{}{
				CoeffBatch{Period: period, Coeffs: coeffs},
			}}}
			continue
		}
		parts := make([][]jaccard.Coefficient, tasks)
		for _, co := range coeffs {
			g := routeSet(co.Tags) % uint64(tasks)
			parts[g] = append(parts[g], co)
		}
		for g, part := range parts {
			if len(part) == 0 {
				continue
			}
			pool[f] = append(pool[f], storm.Tuple{Stream: StreamCoeff, Values: []interface{}{
				CoeffBatch{Period: period, Route: uint64(g), Coeffs: part},
			}})
		}
	}
	return pool
}

// BenchmarkTrackerFanout measures the Tracker's report intake on the
// concurrent executor at parallelism 1 vs 4: four spouts play Calculators
// shipping 64-coefficient period flushes, fields-grouped (CoeffKey) onto
// the Tracker tasks sharing the one sharded Tracker. ns/op is per flush,
// identical logical work in both variants; tasks=4 spreads the mailbox and
// consumer-side work the single tracker task serializes at tasks=1.
func BenchmarkTrackerFanout(b *testing.B) {
	const (
		spouts   = 4
		batchLen = 64
	)
	for _, tasks := range []int{1, 4} {
		pool := fanoutFlushPool(tasks, 512, batchLen)
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			tr := NewTrackerWith(16, 128, 0)
			bld := storm.NewBuilder()
			spawned := 0
			bld.Spout("calc", func() storm.Spout {
				n := b.N / spouts
				if spawned < b.N%spouts {
					n++
				}
				s := &flushSpout{pool: pool, n: n, i: spawned * 131}
				spawned++
				return s
			}, spouts)
			bld.Bolt("tracker", func() storm.Bolt { return tr }, tasks).Fields("calc", CoeffKey)
			topo, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			topo.RunConcurrent()
		})
	}
}
