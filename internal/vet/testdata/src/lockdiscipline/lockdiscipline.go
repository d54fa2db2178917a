// Package lockdiscipline seeds violations for the lockdiscipline analyzer:
// blocking operations under a held mutex.
package lockdiscipline

import (
	"sync"
	"time"

	"repro/internal/storm"
)

type shard struct {
	mu   sync.Mutex
	vals []int
	out  chan int
}

type index struct {
	rw sync.RWMutex
	m  map[int]int
}

func sendWhileHeld(s *shard) {
	s.mu.Lock()
	s.out <- 1 // want `channel send while s.mu is held`
	s.mu.Unlock()
}

func receiveWhileHeld(s *shard) int {
	s.mu.Lock()
	v := <-s.out // want `channel receive while s.mu is held`
	s.mu.Unlock()
	return v
}

func emitWhileHeld(s *shard, out storm.Collector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out.Emit(storm.Tuple{Stream: "coef"}) // want `storm Emit while s.mu is held`
}

func sleepWhileHeld(s *shard) {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `blocking call while s.mu is held`
	s.mu.Unlock()
}

func waitWhileRLocked(ix *index, wg *sync.WaitGroup) {
	ix.rw.RLock()
	wg.Wait() // want `blocking call while ix.rw is held`
	ix.rw.RUnlock()
}

// publishNonBlocking is the sanctioned pattern: a select with default never
// blocks, so publishing under the lock is fine.
func publishNonBlocking(s *shard) {
	s.mu.Lock()
	select {
	case s.out <- 1:
	default:
	}
	s.mu.Unlock()
}

// sendAfterUnlock releases before the send — the pattern the analyzer wants.
func sendAfterUnlock(s *shard) {
	s.mu.Lock()
	v := s.vals[0]
	s.mu.Unlock()
	s.out <- v
}
