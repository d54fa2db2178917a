package dsu

import (
	"math/rand"
	"sort"
	"testing"
)

// Same reports whether a and b are currently in the same set.
func (d *DSU) Same(a, b int) bool { return d.Find(a) == d.Find(b) }

// SizeOf returns the number of elements in x's set.
func (d *DSU) SizeOf(x int) int { return int(d.size[d.Find(x)]) }

func TestSingletons(t *testing.T) {
	d := New(5)
	if d.Sets() != 5 || d.Len() != 5 {
		t.Fatalf("Sets=%d Len=%d, want 5 5", d.Sets(), d.Len())
	}
	for i := 0; i < 5; i++ {
		if d.Find(i) != i {
			t.Errorf("Find(%d) = %d", i, d.Find(i))
		}
		if d.SizeOf(i) != 1 {
			t.Errorf("SizeOf(%d) = %d", i, d.SizeOf(i))
		}
	}
}

func TestUnionBasic(t *testing.T) {
	d := New(4)
	if _, merged := d.Union(0, 1); !merged {
		t.Fatal("first union reported no merge")
	}
	if _, merged := d.Union(0, 1); merged {
		t.Fatal("repeat union reported a merge")
	}
	if !d.Same(0, 1) || d.Same(0, 2) {
		t.Error("Same wrong after union")
	}
	if d.Sets() != 3 {
		t.Errorf("Sets = %d, want 3", d.Sets())
	}
	if d.SizeOf(1) != 2 {
		t.Errorf("SizeOf = %d, want 2", d.SizeOf(1))
	}
}

func TestLazyGrowth(t *testing.T) {
	var d DSU
	d.Union(3, 7)
	if d.Len() != 8 {
		t.Fatalf("Len = %d, want 8", d.Len())
	}
	if !d.Same(3, 7) || d.Same(0, 3) {
		t.Error("lazy growth broke set structure")
	}
	if d.Sets() != 7 {
		t.Errorf("Sets = %d, want 7", d.Sets())
	}
}

func TestComponents(t *testing.T) {
	d := New(6)
	d.Union(0, 1)
	d.Union(1, 2)
	d.Union(4, 5)
	comps := d.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	sizes := make([]int, 0, 3)
	for _, c := range comps {
		sizes = append(sizes, len(c))
	}
	sort.Ints(sizes)
	want := []int{1, 2, 3}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("component sizes %v, want %v", sizes, want)
		}
	}
}

func TestReset(t *testing.T) {
	d := New(4)
	d.Union(0, 1)
	d.Union(2, 3)
	d.Reset()
	if d.Sets() != 4 {
		t.Fatalf("Sets after reset = %d", d.Sets())
	}
	if d.Same(0, 1) {
		t.Error("sets survived reset")
	}
}

// TestQuickInvariants random-walks union operations and checks the structure
// against a naive labelling.
func TestQuickInvariants(t *testing.T) {
	const n = 200
	r := rand.New(rand.NewSource(11))
	d := New(n)
	label := make([]int, n)
	for i := range label {
		label[i] = i
	}
	relabel := func(from, to int) {
		for i := range label {
			if label[i] == from {
				label[i] = to
			}
		}
	}
	for step := 0; step < 2000; step++ {
		a, b := r.Intn(n), r.Intn(n)
		_, merged := d.Union(a, b)
		if merged == (label[a] == label[b]) {
			t.Fatalf("step %d: merged=%v but labels %d,%d", step, merged, label[a], label[b])
		}
		if merged {
			relabel(label[b], label[a])
		}
		// Spot-check consistency.
		x, y := r.Intn(n), r.Intn(n)
		if d.Same(x, y) != (label[x] == label[y]) {
			t.Fatalf("step %d: Same(%d,%d) disagrees with labels", step, x, y)
		}
		sz := 0
		for i := range label {
			if label[i] == label[x] {
				sz++
			}
		}
		if d.SizeOf(x) != sz {
			t.Fatalf("step %d: SizeOf(%d)=%d, want %d", step, x, d.SizeOf(x), sz)
		}
	}
	// Set count must match distinct labels.
	distinct := make(map[int]bool)
	for _, l := range label {
		distinct[l] = true
	}
	if d.Sets() != len(distinct) {
		t.Fatalf("Sets=%d, want %d", d.Sets(), len(distinct))
	}
}
