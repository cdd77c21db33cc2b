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

// Chunks is an append-only list that never re-copies what it holds, where a
// slice grown by append allocates ≈4.3 bytes per byte it ends up holding.
// Only the first chunk grows as a slice does, to chunkMin elements, so a
// short list costs what a slice would; then each full chunk is sealed and the
// next is as large as all held so far, up to chunkMax. The zero value is ready.
type Chunks[T any] struct {
	sealed [][]T
	tail   []T
	n      int
}

const chunkMin, chunkMax = 16, 1024

// Add appends x.
func (c *Chunks[T]) Add(x T) {
	if len(c.tail) == cap(c.tail) && c.n >= chunkMin {
		c.sealed = append(c.sealed, c.tail)
		c.tail = make([]T, 0, min(c.n, chunkMax))
	}
	c.tail = append(c.tail, x)
	c.n++
}

// Slice returns the elements in the order added, in a slice the caller owns.
func (c *Chunks[T]) Slice() []T {
	out := make([]T, 0, c.n)
	for _, chunk := range c.sealed {
		out = append(out, chunk...)
	}
	return append(out, c.tail...)
}

// Series accumulates completion samples for a single subscriber.
// The zero value is ready to use.
//
// Every sample is kept, 16 bytes each plus the last chunk's unfilled part.
// Offsets should be non-decreasing; Record notes the first that is not, and
// from then on every query sorts a copy.
//
// Series is safe for concurrent use: a recorder goroutine may Record while
// another computes rates or deviations — the shape the conformance auditor
// shares with scrape handlers. A Series must not be copied after first use.
type Series struct {
	mu        sync.Mutex
	samples   Chunks[Sample]
	unordered bool // an offset has gone backwards
}

// Record appends a sample.
func (s *Series) Record(t time.Duration, units float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tail := s.samples.tail; len(tail) > 0 && t < tail[len(tail)-1].T {
		s.unordered = true
	}
	s.samples.Add(Sample{T: t, Units: units})
}

// Len returns the number of recorded samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples.n
}

// sortedCopy returns the samples by offset in a new slice. Callers hold s.mu.
func (s *Series) sortedCopy() []Sample {
	cp := s.samples.Slice()
	if s.unordered {
		sort.Slice(cp, func(i, j int) bool { return cp[i].T < cp[j].T })
	}
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
	bin := func(samples []Sample) {
		for _, x := range samples {
			t := x.T - from
			if t < 0 || t >= time.Duration(n)*interval {
				continue
			}
			rates[int(t/interval)] += x.Units
		}
	}
	if s.unordered {
		bin(s.sortedCopy())
	} else {
		for _, chunk := range s.samples.sealed {
			bin(chunk)
		}
		bin(s.samples.tail)
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
// interpolation; it returns 0 for an empty slice. It sorts a copy, not xs.
func Percentile(xs []float64, p float64) float64 {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return PercentileSorted(cp, p)
}

// PercentileSorted is Percentile for a slice already in ascending order.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Samples returns a copy of the recorded samples ordered by offset, for
// shape analysis (e.g. a recovered node's slow-start weight ramp).
func (s *Series) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sortedCopy()
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
