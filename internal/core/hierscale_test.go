// Black-box hierarchical-scale suite: the per-cycle cost benchmark behind
// make bench-hier, the allocation regression gate for the two-level
// reservation round, the group-level visit-fairness property, and the
// smooth-WRR table-restart regression for weight changes. It lives in
// package core_test so it can share the benchkit.HierScale fixture with the
// gagebench CLI — both drive the identical steady-state cycle.
package core_test

import (
	"fmt"
	"testing"
	"time"

	"gage/internal/benchkit"
	"gage/internal/core"
	"gage/internal/qos"
)

// BenchmarkHierCycle measures one steady-state scheduling cycle with a fixed
// 100-subscriber Zipf(1.1)-skewed hot set across 32 groups while the
// registered population sweeps 1k→1M. Per-cycle cost must stay flat across
// the sweep: the hot path touches only active groups and their backlogged
// members, and idle subscribers are never even materialized.
func BenchmarkHierCycle(b *testing.B) {
	for _, total := range []int{1_000, 10_000, 100_000, 1_000_000} {
		for _, rec := range []bool{false, true} {
			b.Run(fmt.Sprintf("subs=%d/rec=%s", total, onOff(rec)), func(b *testing.B) {
				sc, err := benchkit.NewHierScale(total, rec)
				if err != nil {
					b.Fatal(err)
				}
				sc.Warm()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sc.Cycle()
				}
			})
		}
	}
}

// TestHierTickAllocFree is the allocation regression gate for the
// hierarchical hot path: after warm-up, a full cycle at 10k registered
// subscribers with ~100 active across 32 groups — Enqueue, Tick, and
// accounting feedback, flight recorder off and on — must not allocate.
func TestHierTickAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, rec := range []bool{false, true} {
		t.Run("rec="+onOff(rec), func(t *testing.T) {
			sc, err := benchkit.NewHierScale(10_000, rec)
			if err != nil {
				t.Fatal(err)
			}
			sc.Warm()
			if allocs := testing.AllocsPerRun(100, sc.Cycle); allocs != 0 {
				t.Errorf("steady-state hierarchical cycle allocated %.0f objects per run, want 0", allocs)
			}
		})
	}
}

// TestHierLazyMaterialization pins the population-independence mechanism
// itself: after warm-up only the hot set (plus nothing else) carries full
// scheduling state, no matter how many subscribers are registered.
func TestHierLazyMaterialization(t *testing.T) {
	sc, err := benchkit.NewHierScale(10_000, false)
	if err != nil {
		t.Fatal(err)
	}
	sc.Warm()
	if reg := sc.Sched.Registered(); reg != 10_000 {
		t.Errorf("Registered() = %d, want 10000", reg)
	}
	if mat := sc.Sched.Materialized(); mat > 100 {
		t.Errorf("Materialized() = %d, want ≤ 100 (the hot set)", mat)
	}
}

// TestGroupRoundOneFairness pins the group level of the reservation round.
// Five groups with equal aggregate reservations compete for a node whose
// outstanding bound is exactly one generic unit, so exactly one request
// dispatches per tick and the smooth-WRR group order alone decides which
// group it goes to. Over any phase the per-group service counts must stay
// within ±1.
func TestGroupRoundOneFairness(t *testing.T) {
	const groups = 5
	const lapsPerPhase = 12
	subs := make([]qos.Subscriber, 0, 2*groups)
	groupOf := make(map[qos.SubscriberID]string, 2*groups+1)
	for g := 0; g < groups; g++ {
		name := fmt.Sprintf("g%d", g)
		// Each group: one anchor carrying the whole group weight, one
		// zero-reservation member along for the ride.
		anchor := qos.Subscriber{
			ID: qos.SubscriberID(fmt.Sprintf("a%d", g)), Reservation: 100,
			QueueLimit: 4096, Group: name,
		}
		rider := qos.Subscriber{
			ID: qos.SubscriberID(fmt.Sprintf("r%d", g)), Reservation: 0,
			QueueLimit: 4096, Group: name,
		}
		subs = append(subs, anchor, rider)
		groupOf[anchor.ID] = name
		groupOf[rider.ID] = name
	}
	dir, err := qos.NewDirectory(subs)
	if err != nil {
		t.Fatalf("NewDirectory: %v", err)
	}
	// 100 GRPS capacity with a one-cycle outstanding window: the admission
	// bound is exactly one generic unit, i.e. one in-flight request.
	sched, err := core.New(dir,
		[]core.NodeConfig{{ID: 1, Capacity: qos.GenericCost().Scale(100)}},
		core.Config{OutstandingWindow: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	var nextID uint64
	for _, s := range subs {
		for i := 0; i < 600; i++ {
			nextID++
			if err := sched.Enqueue(core.Request{ID: nextID, Subscriber: s.ID}); err != nil {
				t.Fatalf("Enqueue(%s): %v", s.ID, err)
			}
		}
	}

	rep := core.UsageReport{Node: 1, BySubscriber: make(map[qos.SubscriberID]core.SubscriberUsage, 1)}
	runPhase := func(ticks int) map[string]int {
		t.Helper()
		counts := make(map[string]int, groups)
		for i := 0; i < ticks; i++ {
			disp := sched.Tick()
			if len(disp) != 1 {
				t.Fatalf("tick dispatched %d requests, want exactly 1 (one-unit bound)", len(disp))
			}
			d := disp[0]
			counts[groupOf[d.Req.Subscriber]]++
			// Complete it immediately so the next tick has room for one.
			clear(rep.BySubscriber)
			rep.Total = d.Predicted
			rep.BySubscriber[d.Req.Subscriber] = core.SubscriberUsage{Usage: d.Predicted, Completed: 1}
			if err := sched.ReportUsage(rep); err != nil {
				t.Fatalf("ReportUsage: %v", err)
			}
		}
		return counts
	}

	for round := 0; round < 4; round++ {
		counts := runPhase(lapsPerPhase * groups)
		lo, hi := counts["g0"], counts["g0"]
		for g := 1; g < groups; g++ {
			c := counts[fmt.Sprintf("g%d", g)]
			if c < lo {
				lo = c
			} else if c > hi {
				hi = c
			}
		}
		if hi-lo > 1 {
			t.Fatalf("round %d: per-group service spread %d (min %d, max %d): %v",
				round, hi-lo, lo, hi, counts)
		}
	}
}

// TestWeightChangeRestartsWRRTable is the regression test for the smooth-WRR
// cursor: recompiling the pick table after SetNodeWeight must restart the
// cursor, not carry a mid-sequence position from the old table into the new
// one — a stale cursor serves picks biased toward whichever nodes the old
// interleaving front-loaded. After flipping node 1 to half weight between
// ticks, the very next picks must follow the canonical smooth-WRR sequence
// for weights (1, ½), which is node 0, node 1, node 0.
func TestWeightChangeRestartsWRRTable(t *testing.T) {
	dir, err := qos.NewDirectory([]qos.Subscriber{
		// 600 GRPS: exactly 6 generic units of credit per 10 ms cycle.
		{ID: "a", Reservation: 600, QueueLimit: 4096},
	})
	if err != nil {
		t.Fatalf("NewDirectory: %v", err)
	}
	// Generous bounds: the node pick is decided by the WRR table alone,
	// never by admission-room skips.
	sched, err := core.New(dir, []core.NodeConfig{
		{ID: 0, Capacity: qos.GenericCost().Scale(1000)},
		{ID: 1, Capacity: qos.GenericCost().Scale(1000)},
	}, core.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var nextID uint64
	fill := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			nextID++
			if err := sched.Enqueue(core.Request{ID: nextID, Subscriber: "a"}); err != nil {
				t.Fatalf("Enqueue: %v", err)
			}
		}
	}
	nodeSeq := func(disp []core.Dispatch) []core.NodeID {
		out := make([]core.NodeID, len(disp))
		for i, d := range disp {
			out[i] = d.Node
		}
		return out
	}

	// Equal weights compile to the plain alternation 0,1. Five requests —
	// an odd count — leave the cursor mid-table, the state the recompile
	// must not carry over.
	fill(5)
	first := nodeSeq(sched.Tick())
	wantFirst := []core.NodeID{0, 1, 0, 1, 0}
	if len(first) != len(wantFirst) {
		t.Fatalf("first tick dispatched %d, want %d", len(first), len(wantFirst))
	}
	for i, w := range wantFirst {
		if first[i] != w {
			t.Fatalf("equal-weight picks = %v, want %v", first, wantFirst)
		}
	}

	// Flip node 1 to half weight between ticks. Weights (64, 32) reduce to
	// (2, 1), whose smooth-WRR table is [0, 1, 0]; the next tick's picks
	// must start at the table's beginning regardless of where the previous
	// tick's cursor stopped.
	if err := sched.SetNodeWeight(1, 0.5); err != nil {
		t.Fatalf("SetNodeWeight: %v", err)
	}
	fill(3)
	second := nodeSeq(sched.Tick())
	want := []core.NodeID{0, 1, 0}
	if len(second) != len(want) {
		t.Fatalf("second tick dispatched %d, want %d", len(second), len(want))
	}
	for i, w := range want {
		if second[i] != w {
			t.Fatalf("picks after weight change = %v, want %v (stale WRR cursor)", second, want)
		}
	}
}
