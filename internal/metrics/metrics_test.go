package metrics

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gage/internal/qos"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestIntervalRatesBinning(t *testing.T) {
	var s Series
	// 3 units in [0,1s), 1 unit in [1s,2s), nothing in [2s,3s).
	s.Record(0, 1)
	s.Record(500*time.Millisecond, 2)
	s.Record(1500*time.Millisecond, 1)
	rates := s.IntervalRatesBetween(0, 3*time.Second, time.Second)
	want := []float64{3, 1, 0}
	if len(rates) != len(want) {
		t.Fatalf("len(rates) = %d, want %d", len(rates), len(want))
	}
	for i := range want {
		if !almostEqual(rates[i], want[i], 1e-12) {
			t.Errorf("rates[%d] = %v, want %v", i, rates[i], want[i])
		}
	}
}

func TestIntervalRatesDiscardsPartialAndOutOfRange(t *testing.T) {
	var s Series
	s.Record(2500*time.Millisecond, 100) // in the trailing partial interval
	s.Record(-time.Second, 5)            // before the window
	rates := s.IntervalRatesBetween(0, 2500*time.Millisecond, time.Second)
	if len(rates) != 2 {
		t.Fatalf("len(rates) = %d, want 2", len(rates))
	}
	for i, r := range rates {
		if r != 0 {
			t.Errorf("rates[%d] = %v, want 0", i, r)
		}
	}
}

func TestIntervalRatesDegenerate(t *testing.T) {
	var s Series
	s.Record(0, 1)
	if got := s.IntervalRatesBetween(0, time.Second, 0); got != nil {
		t.Errorf("zero interval: got %v, want nil", got)
	}
	if got := s.IntervalRatesBetween(0, time.Millisecond, time.Second); got != nil {
		t.Errorf("window < interval: got %v, want nil", got)
	}
}

func TestIntervalRatesUnsortedInput(t *testing.T) {
	var s Series
	s.Record(1500*time.Millisecond, 1)
	s.Record(100*time.Millisecond, 2)
	rates := s.IntervalRatesBetween(0, 2*time.Second, time.Second)
	if !almostEqual(rates[0], 2, 1e-12) || !almostEqual(rates[1], 1, 1e-12) {
		t.Errorf("rates = %v, want [2 1]", rates)
	}
}

func TestDeviationZeroForPerfectService(t *testing.T) {
	var s Series
	// Exactly 50 units every second for 10 s.
	for i := 0; i < 10; i++ {
		s.Record(time.Duration(i)*time.Second+500*time.Millisecond, 50)
	}
	dev, err := s.DeviationFromReservation(qos.GRPS(50), 10*time.Second, time.Second)
	if err != nil {
		t.Fatalf("DeviationFromReservation: %v", err)
	}
	if !almostEqual(dev, 0, 1e-12) {
		t.Errorf("deviation = %v, want 0", dev)
	}
}

func TestDeviationAlternatingLoad(t *testing.T) {
	var s Series
	// Alternates 0 and 100 units/s around a 50-unit reservation ⇒ 100%
	// deviation at 1 s averaging, 0% at 2 s averaging. This is the paper's
	// Figure-3 explanation of the 2 s-cycle/1 s-interval data point.
	for i := 0; i < 10; i += 2 {
		s.Record(time.Duration(i)*time.Second+100*time.Millisecond, 100)
	}
	dev1, err := s.DeviationFromReservation(50, 10*time.Second, time.Second)
	if err != nil {
		t.Fatalf("dev1: %v", err)
	}
	if !almostEqual(dev1, 1.0, 1e-12) {
		t.Errorf("1s-interval deviation = %v, want 1.0", dev1)
	}
	dev2, err := s.DeviationFromReservation(50, 10*time.Second, 2*time.Second)
	if err != nil {
		t.Fatalf("dev2: %v", err)
	}
	if !almostEqual(dev2, 0, 1e-12) {
		t.Errorf("2s-interval deviation = %v, want 0", dev2)
	}
}

func TestDeviationErrors(t *testing.T) {
	var s Series
	if _, err := s.DeviationFromReservation(0, time.Second, time.Second); err == nil {
		t.Error("zero reservation must error")
	}
	if _, err := s.DeviationFromReservation(50, time.Millisecond, time.Second); err == nil {
		t.Error("window shorter than interval must error")
	}
}

// Property: widening the averaging interval by an integer factor never
// increases the deviation for a load pattern binned at the base interval
// (Jensen-type smoothing — the paper's observed monotone decrease).
func TestDeviationMonotoneUnderAggregationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s Series
		for i := 0; i < 16; i++ {
			s.Record(time.Duration(i)*time.Second+time.Millisecond, float64(r.Intn(100)))
		}
		d1, err1 := s.DeviationFromReservation(50, 16*time.Second, time.Second)
		d4, err4 := s.DeviationFromReservation(50, 16*time.Second, 4*time.Second)
		return err1 == nil && err4 == nil && d4 <= d1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty-slice Mean must be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10},
		{100, 40},
		{50, 25},
		{-5, 10},
		{150, 40},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty Percentile must be 0")
	}
	// Input must not be mutated (sorted copy).
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Errorf("Percentile mutated input: %v", ys)
	}
}

func TestSamplesSortedCopy(t *testing.T) {
	s := &Series{}
	s.Record(2*time.Second, 1)
	s.Record(time.Second, 2)
	got := s.Samples()
	if s.Len() != 2 || len(got) != 2 || got[0].T != time.Second || got[1].T != 2*time.Second {
		t.Fatalf("Samples() = %v, want sorted by offset", got)
	}
	// Mutating the copy must not corrupt the series.
	got[0].Units = 99
	if s.Samples()[0].Units != 2 {
		t.Error("Samples() returned a view into the series, want a copy")
	}
}

func TestMonotoneNonDecreasing(t *testing.T) {
	cases := []struct {
		xs   []float64
		tol  float64
		want bool
	}{
		{nil, 0, true},
		{[]float64{1}, 0, true},
		{[]float64{0, 0.2, 0.4, 1}, 0, true},
		{[]float64{0, 0.4, 0.2}, 0, false},
		{[]float64{0, 0.4, 0.35}, 0.1, true}, // dip within tolerance
		{[]float64{1, 1, 1}, 0, true},
	}
	for i, tc := range cases {
		if got := MonotoneNonDecreasing(tc.xs, tc.tol); got != tc.want {
			t.Errorf("case %d: MonotoneNonDecreasing(%v, %v) = %v, want %v", i, tc.xs, tc.tol, got, tc.want)
		}
	}
}

// TestSeriesConcurrency races recording against every query path — the shape
// the conformance auditor shares with scrape handlers. Its value is under
// -race: any unsynchronized access fails the race build.
func TestSeriesConcurrency(t *testing.T) {
	var s Series
	done := make(chan struct{})
	var wg sync.WaitGroup
	spin := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
					f(i)
				}
			}
		}()
	}
	spin(func(i int) { s.Record(time.Duration(i)*time.Millisecond, 1) })
	spin(func(i int) { s.Len() })
	spin(func(i int) { s.IntervalRatesBetween(0, time.Duration(i)*time.Millisecond, 100*time.Millisecond) })
	spin(func(i int) { s.DeviationFromReservation(100, time.Duration(i)*time.Millisecond, 100*time.Millisecond) })
	spin(func(i int) { s.Samples() })
	time.Sleep(100 * time.Millisecond)
	close(done)
	wg.Wait()
}

// TestChunksHoldEverythingInPlace: a Chunks yields what was added, in order,
// at every length across several chunk boundaries, and once an element is
// past the first chunkMin it is never moved — its address at the end is the
// address it was written to.
func TestChunksHoldEverythingInPlace(t *testing.T) {
	const n = 3*chunkMax + 7
	var c Chunks[int]
	addrs := make([]*int, 0, n)
	for i := 0; i < n; i++ {
		c.Add(i * 3)
		if c.n != i+1 {
			t.Fatalf("n after %d adds = %d", i+1, c.n)
		}
		addrs = append(addrs, &c.tail[len(c.tail)-1])
		if i < 70 || i%257 == 0 || i == n-1 {
			got := c.Slice()
			if len(got) != i+1 {
				t.Fatalf("Slice after %d adds has %d elements", i+1, len(got))
			}
			for k, x := range got {
				if x != k*3 {
					t.Fatalf("after %d adds: element %d = %d, want %d", i+1, k, x, k*3)
				}
			}
		}
	}
	i := 0
	for _, chunk := range append(c.sealed[:len(c.sealed):len(c.sealed)], c.tail) {
		for k := range chunk {
			if i >= chunkMin && &chunk[k] != addrs[i] {
				t.Fatalf("element %d was moved after it was added", i)
			}
			i++
		}
	}
	if i != n {
		t.Fatalf("the chunks hold %d elements, want %d", i, n)
	}
	if got := c.Slice(); &got[0] == &c.sealed[0][0] {
		t.Error("Slice returned the list's own memory, want a copy")
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSeriesCostsNoMoreThanASlice: the conformance auditor builds a Series
// per subscriber per report on the live path, a handful of samples to a few
// hundred. At no length may that cost more bytes than the append-grown
// []Sample the Series used to be, and a few thousand samples must cost less
// than half.
func TestSeriesCostsNoMoreThanASlice(t *testing.T) {
	var keepSeries *Series
	var keepSlice []Sample
	// The Series value itself (mutex, list header) costs the same whatever it
	// holds, and a slice's owner has a header somewhere too.
	empty := allocated(func() { keepSeries = new(Series) })
	for n := 1; n <= 4096; n++ {
		if n > 80 && n%97 != 0 && n != 4096 {
			continue
		}
		series := allocated(func() {
			var s Series
			for i := 0; i < n; i++ {
				s.Record(time.Duration(i), 1)
			}
			keepSeries = &s
		})
		slice := allocated(func() {
			var xs []Sample
			for i := 0; i < n; i++ {
				xs = append(xs, Sample{T: time.Duration(i), Units: 1})
			}
			keepSlice = xs
		})
		series -= empty
		if series > slice {
			t.Errorf("%d samples: Series allocated %d bytes, a plain slice %d", n, series, slice)
		}
		if n == 4096 && series*2 > slice {
			t.Errorf("%d samples: Series allocated %d bytes, more than half a plain slice's %d", n, series, slice)
		}
	}
	_, _ = keepSeries, keepSlice
}

// referenceSeries is the Series as it was: one slice, checked for order and
// if need be copied and sorted on every query.
type referenceSeries []Sample

func (r referenceSeries) sorted() []Sample {
	if sort.SliceIsSorted(r, func(i, j int) bool { return r[i].T < r[j].T }) {
		return r
	}
	cp := append([]Sample(nil), r...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].T < cp[j].T })
	return cp
}

func (r referenceSeries) rates(from, to, interval time.Duration) []float64 {
	n := int((to - from) / interval)
	rates := make([]float64, n)
	for _, x := range r.sorted() {
		t := x.T - from
		if t < 0 || t >= time.Duration(n)*interval {
			continue
		}
		rates[int(t/interval)] += x.Units
	}
	for i := range rates {
		rates[i] /= interval.Seconds()
	}
	return rates
}

// TestSeriesMatchesReference holds the chunked Series against the slice it
// replaced, bit for bit: Samples and the interval rates (whose sums depend on
// the order samples are visited in) for series recorded in order, with ties,
// with a negative first offset, and out of order at the start, in the middle
// and at the very end.
func TestSeriesMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := []int{1, 2, 15, 16, 17, 300, 2500}[seed%7]
		disorder := -1 // none
		switch seed % 4 {
		case 1:
			disorder = rng.Intn(n)
		case 2:
			disorder = n - 1
		}
		var s Series
		var ref referenceSeries
		at := -time.Second
		for i := 0; i < n; i++ {
			at += time.Duration(rng.Intn(3)) * time.Millisecond // ties are common
			t0 := at
			if i == disorder {
				t0 -= 40 * time.Millisecond
			}
			u := rng.Float64()
			s.Record(t0, u)
			ref = append(ref, Sample{T: t0, Units: u})
		}
		got, want := s.Samples(), ref.sorted()
		if len(got) != len(want) || s.Len() != n {
			t.Fatalf("seed %d: %d samples (Len %d), reference %d", seed, len(got), s.Len(), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: sample %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		for _, interval := range []time.Duration{7 * time.Millisecond, 100 * time.Millisecond} {
			from, to := -900*time.Millisecond, at
			if to-from < interval {
				continue
			}
			gotR, wantR := s.IntervalRatesBetween(from, to, interval), ref.rates(from, to, interval)
			if len(gotR) != len(wantR) {
				t.Fatalf("seed %d: %d rates, reference %d", seed, len(gotR), len(wantR))
			}
			for i := range wantR {
				if gotR[i] != wantR[i] {
					t.Fatalf("seed %d interval %v: rate %d = %v, reference %v", seed, interval, i, gotR[i], wantR[i])
				}
			}
		}
	}
}

// TestOrderedSeriesQueriesCopyNothing: a series recorded in order — every
// one the simulator keeps — answers a rate query from its chunks as they
// lie; the only allocation is the result.
func TestOrderedSeriesQueriesCopyNothing(t *testing.T) {
	var s Series
	for i := 0; i < 5000; i++ {
		s.Record(time.Duration(i)*time.Millisecond, 1)
	}
	if got := testing.AllocsPerRun(20, func() { s.IntervalRatesBetween(0, 5*time.Second, time.Second) }); got != 1 {
		t.Errorf("IntervalRatesBetween on an ordered series: %v allocations, want 1 (the rates)", got)
	}
}

func TestPercentileSorted(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	sorted := []float64{10, 20, 30, 40}
	for _, p := range []float64{-5, 0, 33, 50, 95, 100, 150} {
		if got, want := PercentileSorted(sorted, p), Percentile(xs, p); got != want {
			t.Errorf("PercentileSorted(%v) = %v, Percentile %v", p, got, want)
		}
	}
	if PercentileSorted(nil, 50) != 0 {
		t.Error("empty PercentileSorted must be 0")
	}
}
