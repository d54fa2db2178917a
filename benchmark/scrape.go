package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one line of a Prometheus text exposition.
type sample struct {
	name   string
	labels string // the raw {...} part, braces stripped
	value  float64
}

// scrape is a parsed /metrics body. The benchmark reads the service's
// public text format, not the telemetry package, so the registry can be
// rebuilt without touching the harness.
type scrape []sample

func parseMetrics(body []byte) scrape {
	var out scrape
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			labels = strings.TrimSuffix(name[i+1:], "}")
			name = name[:i]
		}
		out = append(out, sample{name: name, labels: labels, value: v})
	}
	return out
}

// sum adds every series of a family whose labels contain want ("" for all).
func (s scrape) sum(name, want string) float64 {
	var total float64
	for _, m := range s {
		if m.name == name && strings.Contains(m.labels, want) {
			total += m.value
		}
	}
	return total
}

// max is the largest series of a family (0 when absent).
func (s scrape) max(name string) float64 {
	var best float64
	for _, m := range s {
		if m.name == name && m.value > best {
			best = m.value
		}
	}
	return best
}

// histQuantile reads a quantile off a histogram family's cumulative
// buckets, summed over its series: the upper bound of the first bucket
// that covers the rank. It returns NaN when the histogram is empty.
func (s scrape) histQuantile(name string, q float64) float64 {
	byLE := make(map[float64]float64)
	for _, m := range s {
		if m.name != name+"_bucket" {
			continue
		}
		i := strings.Index(m.labels, `le="`)
		if i < 0 {
			continue
		}
		le := m.labels[i+4:]
		le = le[:strings.IndexByte(le, '"')]
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil { // +Inf parses; anything else is skipped
			continue
		}
		byLE[bound] += m.value
	}
	bounds := make([]float64, 0, len(byLE))
	for b := range byLE {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || byLE[bounds[len(bounds)-1]] == 0 {
		return math.NaN()
	}
	rank := q * byLE[bounds[len(bounds)-1]]
	for _, b := range bounds {
		if byLE[b] >= rank {
			return b
		}
	}
	return bounds[len(bounds)-1]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB, or
// NaN where /proc does not say.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
