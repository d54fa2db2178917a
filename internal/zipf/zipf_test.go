package zipf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// PMF returns P(X = m), read off the CDF Sample searches: the oracle the
// samples are checked against. Values outside {1..n} have probability 0.
func (d *Dist) PMF(m int) float64 {
	if m < 1 || m > d.n {
		return 0
	}
	if m == 1 {
		return d.cdf[0]
	}
	return d.cdf[m-1] - d.cdf[m-2]
}

// Mean returns E[X], summed over the PMF.
func (d *Dist) Mean() float64 {
	mean := 0.0
	for m := 1; m <= d.n; m++ {
		mean += float64(m) * d.PMF(m)
	}
	return mean
}

func TestPMFSumsToOne(t *testing.T) {
	for _, s := range []float64{0, 0.25, 1, 2.5} {
		d := New(8, s)
		sum := 0.0
		for m := 1; m <= 8; m++ {
			sum += d.PMF(m)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("s=%g: PMF sums to %g", s, sum)
		}
	}
}

func TestPMFMonotoneForPositiveSkew(t *testing.T) {
	d := New(10, 0.25)
	for m := 2; m <= 10; m++ {
		if d.PMF(m) > d.PMF(m-1)+1e-15 {
			t.Errorf("PMF(%d)=%g > PMF(%d)=%g", m, d.PMF(m), m-1, d.PMF(m-1))
		}
	}
}

func TestPMFOutOfRange(t *testing.T) {
	d := New(5, 1)
	if d.PMF(0) != 0 || d.PMF(6) != 0 || d.PMF(-1) != 0 {
		t.Error("out-of-range PMF not zero")
	}
}

func TestUniformSpecialCase(t *testing.T) {
	d := New(4, 0)
	for m := 1; m <= 4; m++ {
		if math.Abs(d.PMF(m)-0.25) > 1e-12 {
			t.Errorf("s=0: PMF(%d)=%g, want 0.25", m, d.PMF(m))
		}
	}
}

func TestSampleMatchesPMF(t *testing.T) {
	d := New(8, 0.25)
	r := rand.New(rand.NewSource(1))
	const n = 200000
	counts := make([]int, 9)
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		if v < 1 || v > 8 {
			t.Fatalf("sample %d out of range", v)
		}
		counts[v]++
	}
	for m := 1; m <= 8; m++ {
		emp := float64(counts[m]) / n
		if math.Abs(emp-d.PMF(m)) > 0.01 {
			t.Errorf("m=%d: empirical %g vs pmf %g", m, emp, d.PMF(m))
		}
	}
}

func TestSampleDeterministicWithSeed(t *testing.T) {
	d := New(100, 1.2)
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if d.Sample(a) != d.Sample(b) {
			t.Fatal("same seed produced different samples")
		}
	}
}

func TestMean(t *testing.T) {
	// Uniform over 1..4 has mean 2.5.
	if m := New(4, 0).Mean(); math.Abs(m-2.5) > 1e-12 {
		t.Errorf("Mean = %g, want 2.5", m)
	}
	// Skewed mean must be below uniform mean.
	if New(8, 2).Mean() >= New(8, 0).Mean() {
		t.Error("skewed mean not below uniform mean")
	}
}

func TestNewPanics(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-3, 1}, {5, -0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%g) did not panic", tc.n, tc.s)
				}
			}()
			New(tc.n, tc.s)
		}()
	}
}

// Property (testing/quick): for arbitrary valid (n, s), the PMF is a
// normalised, non-increasing distribution and samples stay in range.
func TestQuickDistInvariants(t *testing.T) {
	f := func(rawN uint8, rawS uint8, seed int64) bool {
		n := 1 + int(rawN)%64
		s := float64(rawS) / 64 // 0 .. ~4
		d := New(n, s)
		sum := 0.0
		prev := math.Inf(1)
		for m := 1; m <= n; m++ {
			p := d.PMF(m)
			if p < 0 || p > prev+1e-15 {
				return false
			}
			prev = p
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			if v := d.Sample(r); v < 1 || v > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
