package metrics

import (
	"math"
	"math/rand"
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
