package topselect

import (
	"math"
	"slices"
	"sync"
)

// Registry tracks the retained period ids of a sharded per-period store, so
// its retention bound is enforced across shards: a period is pruned
// everywhere exactly once, and a monotone floor marks everything at or
// below the highest pruned period as dead, so late reports are rejected
// without touching the shards. Safe for concurrent use; a known period is
// confirmed under the read lock only.
type Registry struct {
	mu     sync.RWMutex
	known  map[int64]struct{}
	keep   int   // retained periods; 0 keeps everything
	floor  int64 // all periods <= floor are pruned
	pruned int64
}

// State is a registry's retention state at one instant.
type State struct {
	Periods []int64 // retained period ids, ascending
	Floor   int64   // every period at or below it is pruned (math.MinInt64 before the first prune)
	Pruned  int64   // periods pruned so far
}

// NewRegistry returns an empty registry that retains the keep newest
// periods (0 keeps everything).
func NewRegistry(keep int) *Registry {
	return &Registry{known: make(map[int64]struct{}), keep: keep, floor: math.MinInt64}
}

// SetKeep changes the retention bound; it takes effect at the next period
// Ensure registers.
func (r *Registry) SetKeep(keep int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keep = keep
}

// Ensure registers period and returns whether it is retained, whether this
// call registered it (fresh), and the period ids this call pruned to make
// room. Each pruned id is handed out exactly once; the caller evicts it
// from the shards.
func (r *Registry) Ensure(period int64) (retained, fresh bool, prune []int64) {
	r.mu.RLock()
	_, known := r.known[period]
	r.mu.RUnlock()
	if known {
		return true, false, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if period <= r.floor {
		return false, false, nil
	}
	if _, known := r.known[period]; known {
		return true, false, nil
	}
	r.known[period] = struct{}{}
	for r.keep > 0 && len(r.known) > r.keep {
		oldest := period
		for p := range r.known {
			oldest = min(oldest, p)
		}
		delete(r.known, oldest)
		r.floor = max(r.floor, oldest)
		r.pruned++
		prune = append(prune, oldest)
	}
	_, retained = r.known[period]
	return retained, true, prune
}

// Floor returns the pruning floor: every period at or below it has been
// pruned (math.MinInt64 before the first prune).
func (r *Registry) Floor() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.floor
}

// Periods returns the retained period ids in ascending order.
func (r *Registry) Periods() []int64 { return r.View(math.MaxInt64, nil).Periods }

// Newest returns the largest retained period id (ok=false when none is).
func (r *Registry) Newest() (newest int64, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for p := range r.known {
		if !ok || p > newest {
			newest, ok = p, true
		}
	}
	return newest, ok
}

// View returns the retention state, its Periods restricted to those
// strictly before `before` (math.MaxInt64 for all). fn, when non-nil, runs
// on that state while the registry is still read-locked, so what it reads
// under the shards' locks describes the same instant: no period opens or is
// pruned meanwhile. A shard table at or below the state's Floor belongs to
// a pruned period whose eviction has not reached that shard yet.
func (r *Registry) View(before int64, fn func(State)) State {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := State{Periods: make([]int64, 0, len(r.known)), Floor: r.floor, Pruned: r.pruned}
	for p := range r.known {
		if p < before {
			st.Periods = append(st.Periods, p)
		}
	}
	slices.Sort(st.Periods)
	if fn != nil {
		fn(st)
	}
	return st
}

// Import loads an exported state into a fresh registry, before any Ensure.
func (r *Registry) Import(st State) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.floor = st.Floor
	r.pruned = st.Pruned
	for _, p := range st.Periods {
		r.known[p] = struct{}{}
	}
}
