package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail percentile backed by fewer is noise.
const minTail = 10

// tailSamples reports how many of n samples lie strictly beyond the
// q-quantile (0 < q < 1) under the nearest-rank rule of percentile.
func tailSamples(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// minSamplesFor is the smallest sample count whose q-quantile has at
// least minTail samples beyond it.
func minSamplesFor(q float64) int {
	n := 1
	for tailSamples(n, q) < minTail {
		n++
	}
	return n
}

// rank is the 1-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-quantile of xs (which it sorts
// in place); NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)-1]
}

// median is percentile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// meter samples the process-wide cost counters a window of ops is
// charged with: CPU time, heap allocation and GC cycles.
type meter struct {
	cpu      time.Duration
	allocB   uint64
	allocObj uint64
	gcCycles uint64
}

var meterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// readMeter samples the counters now.
func readMeter() meter {
	s := make([]metrics.Sample, len(meterSamples))
	copy(s, meterSamples)
	metrics.Read(s)
	return meter{
		cpu:      processCPU(),
		allocB:   s[0].Value.Uint64(),
		allocObj: s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
	}
}

// heapAllocBytes reads only the cumulative heap allocation counter —
// the cheap probe the traced run takes around single layer calls.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sub returns the cost accrued between two samples.
func (m meter) sub(o meter) meter {
	return meter{
		cpu:      m.cpu - o.cpu,
		allocB:   m.allocB - o.allocB,
		allocObj: m.allocObj - o.allocObj,
		gcCycles: m.gcCycles - o.gcCycles,
	}
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or 0
// when /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
