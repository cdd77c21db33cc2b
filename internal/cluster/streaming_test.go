package cluster

import (
	"runtime"
	"testing"
	"time"
)

// TestTable1AllocBudget gates what one simulated Table 1 may allocate. The
// run offers ≈40,000 requests and sends 4,000 accounting messages, so the
// budget — the figure measured before the hops carried records, 1,640
// allocations and 10.04 MiB — has no room for an allocation per arrival (a
// pre-scheduled event node, a materialized trace, a map entry a hop grows)
// or per message (fresh report maps): either fails `go test`, not only the
// benchmark. What is left is series samples, request slabs and latency
// samples.
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
	if mallocs > 1640 {
		t.Errorf("%d allocations in one Table 1 run, budget 1640", mallocs)
	}
	if bytes > 10<<20+512<<10 {
		t.Errorf("%.1f MiB allocated in one Table 1 run, budget 10.5 MiB", float64(bytes)/(1<<20))
	}
}

// TestPendingEventsDoNotGrowWithRunLength: arrivals are pulled, not
// pre-scheduled, so the engine's heap holds the periodic hops and the
// requests in flight — a few hundred events — however long the run. Table 1
// at four times its duration offers ≈138,000 requests; each was a heap entry
// from the start of the run when arrivals were registered up front.
func TestPendingEventsDoNotGrowWithRunLength(t *testing.T) {
	opts := table1Options()
	opts.Duration *= 4
	s, err := newSim(FrontierOptions{Options: opts}.withFrontierDefaults())
	if err != nil {
		t.Fatalf("newSim: %v", err)
	}
	peak := 0
	s.engine.Every(time.Millisecond, func() {
		if n := s.engine.Len(); n > peak {
			peak = n
		}
	})
	if err := s.run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if s.admitted+s.shed < 130_000 {
		t.Fatalf("only %d requests reached the queues; the run is not the long one", s.admitted+s.shed)
	}
	t.Logf("pending-event high-water mark, sampled every virtual millisecond: %d", peak)
	if peak > 1000 {
		t.Errorf("%d events pending at once, bound 1000: the heap is holding the arrival trace", peak)
	}
}
