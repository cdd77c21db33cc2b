// Package metrics collects stability measurements for Gage experiments:
// per-subscriber completion series and the deviation-from-reservation
// statistic that the paper plots in Figure 3.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"gage/internal/qos"
)

// Sample is one recorded completion: at offset t from the measurement start,
// units of work (in generic-request units) were delivered.
type Sample struct {
	// T is the offset from the start of the measurement window.
	T time.Duration
	// Units is the amount of service delivered, in generic-request units.
	Units float64
}

// Series accumulates completion samples for a single subscriber.
// The zero value is ready to use.
//
// Series is safe for concurrent use: a recorder goroutine may Record while
// another computes rates or deviations — the shape the conformance auditor
// shares with scrape handlers. A Series must not be copied after first use.
type Series struct {
	mu      sync.Mutex
	samples []Sample
}

// Record appends a sample. Offsets should be non-decreasing, but Series
// tolerates out-of-order recording (it sorts lazily when queried).
func (s *Series) Record(t time.Duration, units float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, Sample{T: t, Units: units})
}

// Len returns the number of recorded samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// sorted returns samples ordered by offset. Callers hold s.mu.
func (s *Series) sorted() []Sample {
	if sort.SliceIsSorted(s.samples, func(i, j int) bool { return s.samples[i].T < s.samples[j].T }) {
		return s.samples
	}
	cp := make([]Sample, len(s.samples))
	copy(cp, s.samples)
	sort.Slice(cp, func(i, j int) bool { return cp[i].T < cp[j].T })
	return cp
}

// IntervalRatesBetween bins the sub-window [from, to) into consecutive
// intervals of the given length and returns the delivery rate (units/sec)
// in each complete interval; a trailing partial interval is discarded. It
// backs the fault-phase deviation split (pre-fault / during-fault /
// post-recovery windows of one run).
func (s *Series) IntervalRatesBetween(from, to, interval time.Duration) []float64 {
	if interval <= 0 || to-from < interval {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int((to - from) / interval)
	rates := make([]float64, n)
	for _, x := range s.sorted() {
		t := x.T - from
		if t < 0 || t >= time.Duration(n)*interval {
			continue
		}
		rates[int(t/interval)] += x.Units
	}
	sec := interval.Seconds()
	for i := range rates {
		rates[i] /= sec
	}
	return rates
}

// DeviationFromReservation computes the paper's Figure-3 statistic for this
// subscriber: the mean over complete averaging intervals of
// |measured rate − reservation| / reservation, as a fraction (0.08 = 8%).
func (s *Series) DeviationFromReservation(res qos.GRPS, window, interval time.Duration) (float64, error) {
	return s.DeviationBetween(res, 0, window, interval)
}

// DeviationBetween computes the Figure-3 deviation statistic over the
// sub-window [from, to) only — the per-phase form used to compare a
// subscriber's stability before, during and after an injected fault.
func (s *Series) DeviationBetween(res qos.GRPS, from, to, interval time.Duration) (float64, error) {
	if res <= 0 {
		return 0, fmt.Errorf("metrics: reservation must be positive, got %v", res)
	}
	rates := s.IntervalRatesBetween(from, to, interval)
	if len(rates) == 0 {
		return 0, fmt.Errorf("metrics: window [%v, %v) too short for interval %v", from, to, interval)
	}
	var sum float64
	for _, r := range rates {
		sum += math.Abs(r-float64(res)) / float64(res)
	}
	return sum / float64(len(rates)), nil
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation; it returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	pos := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Samples returns a copy of the recorded samples ordered by offset, for
// shape analysis (e.g. a recovered node's slow-start weight ramp).
func (s *Series) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, len(s.samples))
	copy(out, s.sorted())
	return out
}

// MonotoneNonDecreasing reports whether xs never drops by more than tol
// between consecutive entries — the shape check the overload drill applies
// to a recovered node's slow-start ramp.
func MonotoneNonDecreasing(xs []float64, tol float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1]-tol {
			return false
		}
	}
	return true
}
