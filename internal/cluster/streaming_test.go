package cluster

import (
	"runtime"
	"testing"
	"time"
)

// TestTable1AllocBudget gates what one simulated Table 1 may allocate, in
// objects and in bytes. The run offers ≈40,000 requests, records ≈70,000
// series samples and 31,000 latencies and sends 4,000 accounting messages;
// measured, it makes 1,556 allocations of 2.4 MiB in all — the samples in
// chunks that are never re-copied, one copy of the latencies for the
// percentiles, the scheduler's queue rings, three latency histograms and
// the few hundred event nodes, flight carriers and request records a run
// warms its free lists with. The budgets have no room for an allocation per
// arrival (an event node, a request record that is not given back, a map
// entry a hop grows) or per message (fresh report maps), nor for a sample
// store that doubles or re-copies what it holds (10.0 MiB when series and
// latencies were append-grown slices and requests were never reused): any
// of them fails `go test`, not only the benchmark.
func TestTable1AllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	if _, err := Table1(); err != nil { // warm: lazy package state, heap growth
		t.Fatalf("Table1: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Table1(); err != nil {
		t.Fatalf("Table1: %v", err)
	}
	runtime.ReadMemStats(&after)
	mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("one Table 1 run: %d allocations, %.1f MiB", mallocs, float64(bytes)/(1<<20))
	if mallocs > 1616 {
		t.Errorf("%d allocations in one Table 1 run, budget 1616", mallocs)
	}
	if bytes > 3<<20+512<<10 {
		t.Errorf("%.1f MiB allocated in one Table 1 run, budget 3.5 MiB", float64(bytes)/(1<<20))
	}
}

// TestPendingEventsDoNotGrowWithRunLength: arrivals are pulled, not
// pre-scheduled, so the engine's heap holds the periodic hops and the
// requests in flight — a few hundred events — however long the run. Table 1
// at four times its duration offers ≈138,000 requests; each was a heap entry
// from the start of the run when arrivals were registered up front.
//
// Its twin: a request's record goes back to the stream when the request is
// over, so the records ever carved are the requests in queues and in flight
// at once — the same few hundred at 50 virtual seconds as at 200, where a
// stream that never reused them carved one per arrival.
func TestPendingEventsDoNotGrowWithRunLength(t *testing.T) {
	longRun := func(scale time.Duration) (peak, records int) {
		opts := table1Options()
		opts.Duration = (opts.Warmup+opts.Duration)*scale - opts.Warmup
		s, err := newSim(FrontierOptions{Options: opts}.withFrontierDefaults())
		if err != nil {
			t.Fatalf("newSim: %v", err)
		}
		s.engine.Every(time.Millisecond, func() { peak = max(peak, s.engine.Len()) })
		if err := s.run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		if want := 32_000 * int(scale); s.admitted+s.shed < want {
			t.Fatalf("only %d requests reached the queues in %d× Table 1, want over %d", s.admitted+s.shed, scale, want)
		}
		return peak, s.stream.Records()
	}
	peak1, records1 := longRun(1)
	peak4, records4 := longRun(4)
	t.Logf("50 s / 200 s of Table 1: pending-event high-water mark (sampled every virtual millisecond) %d / %d, request records carved %d / %d",
		peak1, peak4, records1, records4)
	if peak4 > 1000 {
		t.Errorf("%d events pending at once, bound 1000: the heap is holding the arrival trace", peak4)
	}
	if records4 > records1 || records4 > 1024 {
		t.Errorf("%d request records carved in the 200 s run against %d in the 50 s one (bound 1024): records are not coming back", records4, records1)
	}
}
