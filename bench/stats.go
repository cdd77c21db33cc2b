package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile (0..1) of sorted xs, or 0 when
// empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// procSnap is the process-wide resource reading taken at every window
// boundary: the per-request cost metrics are differences of two of these
// divided by the responses received in between.
type procSnap struct {
	at      time.Time
	cpu     time.Duration // user+system, getrusage(RUSAGE_SELF)
	mallocs uint64        // cumulative heap objects allocated
	bytes   uint64        // cumulative heap bytes allocated
	gcCPU   float64       // cumulative GC CPU seconds
	maxRSS  int64         // peak resident set, KiB
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(gcCPUSample)
	s := procSnap{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		maxRSS:  ru.Maxrss,
	}
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gcCPUSample[0].Value.Float64()
	}
	return s
}

// sleepUntil blocks until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
