package quality

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestGiniBalanced(t *testing.T) {
	if g := gini([]float64{5, 5, 5, 5}); !approx(g, 0, 1e-12) {
		t.Errorf("Gini balanced = %g, want 0", g)
	}
}

func TestGiniAllOnOne(t *testing.T) {
	// One node has everything: G = 1 - 1/n.
	g := gini([]float64{0, 0, 0, 10})
	if !approx(g, 0.75, 1e-12) {
		t.Errorf("Gini = %g, want 0.75", g)
	}
}

func TestGiniKnownValue(t *testing.T) {
	// {1,3}: mean abs diff = 2, mean = 2, G = 2/(2*2*2) ... use direct formula:
	// G for {1,3} = (2*(1*1+2*3))/(2*4) - 3/2 = 14/8 - 1.5 = 0.25.
	if g := gini([]float64{1, 3}); !approx(g, 0.25, 1e-12) {
		t.Errorf("gini({1,3}) = %g, want 0.25", g)
	}
}

func TestGiniEdgeCases(t *testing.T) {
	if gini(nil) != 0 {
		t.Error("gini(nil) != 0")
	}
	if gini([]float64{0, 0}) != 0 {
		t.Error("gini(zeros) != 0")
	}
	if g := GiniInts([]int64{1, 3}); !approx(g, 0.25, 1e-12) {
		t.Errorf("GiniInts = %g", g)
	}
}

func TestGiniScaleInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		vals := make([]float64, 1+r.Intn(20))
		for j := range vals {
			vals[j] = r.Float64() * 100
		}
		g1 := gini(vals)
		scaled := make([]float64, len(vals))
		for j := range vals {
			scaled[j] = vals[j] * 7.5
		}
		if !approx(g1, gini(scaled), 1e-9) {
			t.Fatalf("Gini not scale invariant: %g vs %g", g1, gini(scaled))
		}
		if g1 < 0 || g1 >= 1 {
			t.Fatalf("Gini out of range: %g", g1)
		}
	}
}

func TestMaxShare(t *testing.T) {
	if s := maxShare([]float64{1, 1, 2}); !approx(s, 0.5, 1e-12) {
		t.Errorf("MaxShare = %g, want 0.5", s)
	}
	if maxShare([]float64{0, 0}) != 0 {
		t.Error("MaxShare zeros != 0")
	}
	if s := MaxShareInts([]int64{3, 1}); !approx(s, 0.75, 1e-12) {
		t.Errorf("MaxShareInts = %g", s)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Record(1, 10)
	s.Record(2, 20)
	s.Record(3, 6)
	s.Mark(2.5)
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if !approx(s.MeanY(), 12, 1e-12) {
		t.Errorf("MeanY = %g", s.MeanY())
	}
	if len(s.Marks) != 1 || s.Marks[0] != 2.5 {
		t.Errorf("Marks = %v", s.Marks)
	}
	var empty Series
	if empty.MeanY() != 0 {
		t.Error("empty series stats wrong")
	}
}

// Property (testing/quick): Gini is always in [0, 1) and invariant under
// positive scaling, for arbitrary non-negative inputs.
func TestQuickGiniBounds(t *testing.T) {
	f := func(raw []uint16, scale uint8) bool {
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		g := gini(vals)
		if g < 0 || g >= 1 {
			return false
		}
		s := 1 + float64(scale)
		scaled := make([]float64, len(vals))
		for i := range vals {
			scaled[i] = vals[i] * s
		}
		return math.Abs(gini(scaled)-g) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MaxShare is in [0,1] and at least 1/n when any value is
// positive.
func TestQuickMaxShare(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		total := 0.0
		for i, v := range raw {
			vals[i] = float64(v)
			total += vals[i]
		}
		s := maxShare(vals)
		if total == 0 {
			return s == 0
		}
		return s >= 1/float64(len(vals))-1e-12 && s <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
