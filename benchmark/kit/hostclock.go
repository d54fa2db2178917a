package kit

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference host does not hold its speed. It is a 2-processor guest
// on a shared machine: the same single-threaded loop over a cache-resident
// hash map takes 560 to 880 µs from one second to the next, and its mean
// over 20 s moves by a third within minutes, with the guest otherwise idle
// and no steal time accounted. A CPU time or a rate measured there says as
// much about the minute it was measured in as about the program: the same
// build's CPU time per document read 719 µs in one set of ten runs and 906
// µs in the set before.
//
// HostClock measures that speed while the benchmark runs. A goroutine
// locked to its own thread runs a small fixed kernel every two milliseconds
// and records the thread CPU time it took. Speed(from, to) is the mean,
// over the samples in an interval, of the kernel's nominal cost over its
// measured cost: 1 on a host as fast as the reference host at its best, 0.7
// when the kernel takes 1/0.7 times as long. The harness multiplies the
// times the program's own speed sets (CPU time, the length of a closed
// loop) by it, so that they read as at reference speed, and reports the
// raw readings and the factor beside them. Times a schedule sets (a paced
// feed, the paced gate) are reported as measured.
//
// The kernel stands in for ordinary Go code. Half of its nominal time goes
// into probes of a 4096-entry map (L2-resident, the part that slows when a
// neighbour competes for the cache), half into a dependent arithmetic chain
// (which does not slow at all here). That split is where the workloads' CPU
// time per document came closest to moving one for one with the kernel's
// cost (../README.md, "Host speed"). The kernel calls nothing of the
// program under test, so no change to the program can move it.
type HostClock struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []hostSample

	tab  map[uint64]uint64
	sink uint64 // keeps the kernel's result alive
}

type hostSample struct {
	at    time.Time
	speed float64 // nominal cost / measured cost
}

const (
	// hostNominalNS is the kernel's thread CPU time on the reference host
	// at its best: 52 µs of probes, 48 µs of arithmetic.
	hostNominalNS = 100_000
	// hostSamplePause is the sleep between two samples.
	hostSamplePause = 2 * time.Millisecond

	kernelProbes   = 2600
	kernelALUSteps = 22000
)

// kernel is the fixed piece of work; see HostClock.
func (h *HostClock) kernel() {
	x := uint64(88172645463325252)
	for i := 0; i < kernelProbes; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.tab[x&0xfff] += x
	}
	for i := 0; i < kernelALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	h.sink += x
}

// threadCPU is the calling thread's CPU time so far, to the nanosecond
// (getrusage's per-thread times advance in scheduler ticks of 4 ms).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// StartHostClock starts sampling. Stop it when the run is over.
func StartHostClock() *HostClock {
	h := &HostClock{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		tab:  make(map[uint64]uint64, 1<<12),
	}
	for i := 0; i < 50; i++ { // fill the map, warm the caches
		h.kernel()
	}
	go h.run()
	return h
}

func (h *HostClock) run() {
	defer close(h.done)
	// Thread CPU time is only the kernel's if nothing else runs on the
	// thread in between.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for {
		select {
		case <-h.stop:
			return
		default:
		}
		t0 := threadCPU()
		h.kernel()
		if cost := threadCPU() - t0; cost > 0 {
			h.mu.Lock()
			h.samples = append(h.samples, hostSample{at: time.Now(), speed: hostNominalNS / float64(cost)})
			h.mu.Unlock()
		}
		time.Sleep(hostSamplePause)
	}
}

// Stop ends the sampling and waits for the sampler to exit. The samples
// stay readable.
func (h *HostClock) Stop() {
	close(h.stop)
	<-h.done
}

// minHostSamples is how many samples an interval's speed rests on at
// least; a shorter interval borrows the nearest ones on either side.
const minHostSamples = 20

// Speed returns the host's mean speed between from and to and the number
// of samples it rests on. A nil clock, or one without samples, says 1.
func (h *HostClock) Speed(from, to time.Time) (float64, int) {
	if h == nil {
		return 1, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.samples
	if len(s) == 0 {
		return 1, 0
	}
	lo := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(from) })
	hi := sort.Search(len(s), func(i int) bool { return s[i].at.After(to) })
	for hi-lo < minHostSamples && (lo > 0 || hi < len(s)) {
		if lo > 0 {
			lo--
		}
		if hi < len(s) {
			hi++
		}
	}
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x.speed
	}
	return sum / float64(hi-lo), hi - lo
}
