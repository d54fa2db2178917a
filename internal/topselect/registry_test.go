package topselect

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// TestRegistryRetention pins Ensure's hand-out on one goroutine: a fresh
// period is reported fresh once, opening a period beyond keep prunes the
// oldest, a period at or below the floor is refused, and View, Newest and
// Import agree with it.
func TestRegistryRetention(t *testing.T) {
	r := NewRegistry(2)
	if _, ok := r.Newest(); ok || r.Floor() != math.MinInt64 {
		t.Fatal("empty registry has a newest period or a floor")
	}
	steps := []struct {
		period          int64
		retained, fresh bool
		prune           []int64
	}{
		{5, true, true, nil},
		{5, true, false, nil},
		{7, true, true, nil},
		{9, true, true, []int64{5}},
		{6, false, true, []int64{6}}, // older than every retained period: pruned at once
		{6, false, false, nil},       // at the floor
		{8, true, true, []int64{7}},
	}
	for _, s := range steps {
		retained, fresh, prune := r.Ensure(s.period)
		if retained != s.retained || fresh != s.fresh || !slices.Equal(prune, s.prune) {
			t.Fatalf("Ensure(%d) = %v, %v, %v; want %v, %v, %v",
				s.period, retained, fresh, prune, s.retained, s.fresh, s.prune)
		}
	}
	st := r.View(math.MaxInt64, nil)
	if !slices.Equal(st.Periods, []int64{8, 9}) || st.Floor != 7 || st.Pruned != 3 {
		t.Fatalf("View = %+v, want periods [8 9], floor 7, pruned 3", st)
	}
	if got := r.View(9, nil).Periods; !slices.Equal(got, []int64{8}) {
		t.Fatalf("View(9).Periods = %v, want [8]", got)
	}
	if n, ok := r.Newest(); !ok || n != 9 {
		t.Fatalf("Newest = %d, %v; want 9", n, ok)
	}

	restored := NewRegistry(2)
	restored.Import(st)
	if got := restored.View(math.MaxInt64, nil); !slices.Equal(got.Periods, st.Periods) || got.Floor != st.Floor || got.Pruned != st.Pruned {
		t.Fatalf("imported state %+v, want %+v", got, st)
	}
}

// TestRegistryConcurrentEnsure has several goroutines open the same
// advancing periods, as the Tracker's tasks and the Trend task do, and
// requires every pruned period to be handed out exactly once, the floor to
// be the highest of them, and the retention bound to hold at the end.
func TestRegistryConcurrentEnsure(t *testing.T) {
	const (
		keep    = 3
		workers = 4
		periods = 200
	)
	r := NewRegistry(keep)
	var (
		mu     sync.Mutex
		pruned []int64
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := int64(0); p < periods; p++ {
				for _, q := range []int64{p, p - int64(w)} { // some reports lag behind
					_, _, prune := r.Ensure(q)
					mu.Lock()
					pruned = append(pruned, prune...)
					mu.Unlock()
				}
				r.Periods()
			}
		}(w)
	}
	wg.Wait()

	slices.Sort(pruned)
	if len(pruned) != len(slices.Compact(slices.Clone(pruned))) {
		t.Fatalf("a pruned period was handed out twice: %v", pruned)
	}
	st := r.View(math.MaxInt64, nil)
	if len(st.Periods) != keep || st.Periods[keep-1] != periods-1 {
		t.Fatalf("retained %v, want the newest %d", st.Periods, keep)
	}
	if st.Pruned != int64(len(pruned)) || st.Floor != pruned[len(pruned)-1] {
		t.Fatalf("state %+v after handing out %d pruned periods up to %d", st, len(pruned), pruned[len(pruned)-1])
	}
}
