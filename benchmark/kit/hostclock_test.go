package kit

import (
	"testing"
	"time"
)

func TestHostClockSpeed(t *testing.T) {
	var none *HostClock
	if s, n := none.Speed(time.Now(), time.Now()); s != 1 || n != 0 {
		t.Errorf("a nil clock says speed %g on %d samples, want 1 on 0", s, n)
	}

	h := StartHostClock()
	from := time.Now()
	time.Sleep(150 * time.Millisecond)
	to := time.Now()
	h.Stop()
	s, n := h.Speed(from, to)
	if n < minHostSamples {
		t.Errorf("%d samples in 150 ms, want at least %d", n, minHostSamples)
	}
	// Whatever the machine, the kernel takes between a tenth and ten times
	// its nominal 100 µs.
	if s < 0.1 || s > 10 {
		t.Errorf("speed %g is not that of a machine", s)
	}
	// An interval too short to hold its own samples borrows its neighbours'.
	if _, n := h.Speed(from, from); n < minHostSamples {
		t.Errorf("an empty interval rests on %d samples, want %d borrowed ones", n, minHostSamples)
	}
}
