// Black-box scheduler scale suite: the per-cycle cost benchmark behind
// make bench-sched, the allocation regression gates for Tick, and the
// round-one fairness property under membership churn. It lives in package
// core_test so it can share the benchkit.SchedScale fixture with the
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

func onOff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}

// BenchmarkSchedCycle measures one steady-state scheduling cycle (the
// cycle's arrivals, one Tick, and per-node accounting feedback) with a
// fixed 64-subscriber working set while the directory size sweeps
// 1k→100k. Per-cycle cost must stay flat across the sweep: the hot path
// touches only backlogged queues, never the directory.
func BenchmarkSchedCycle(b *testing.B) {
	for _, total := range []int{1_000, 10_000, 100_000} {
		for _, rec := range []bool{false, true} {
			b.Run(fmt.Sprintf("subs=%d/rec=%s", total, onOff(rec)), func(b *testing.B) {
				sc, err := benchkit.NewSchedScale(total, rec)
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

// BenchmarkSchedCycleSubmit is BenchmarkSchedCycle with the cycle's arrivals
// going through Submit, as a front end's do: the same load, some of it
// dispatched on arrival and the rest at the Tick, and still no allocation.
func BenchmarkSchedCycleSubmit(b *testing.B) {
	for _, rec := range []bool{false, true} {
		b.Run("subs=10000/rec="+onOff(rec), func(b *testing.B) {
			sc, err := benchkit.NewSchedScale(10_000, rec)
			if err != nil {
				b.Fatal(err)
			}
			sc.OnArrival = true
			sc.Warm()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Cycle()
			}
		})
	}
}

// TestTickAllocFreeAt10k is the allocation regression gate for the
// scheduling hot path: after warm-up, a full cycle at 10k registered
// subscribers — arrivals through Enqueue or through Submit, Tick, and
// accounting feedback, with the flight recorder both off and on — must not
// allocate at all.
func TestTickAllocFreeAt10k(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, onArrival := range []bool{false, true} {
		for _, rec := range []bool{false, true} {
			name := "rec=" + onOff(rec)
			if onArrival {
				name = "submit/" + name
			}
			t.Run(name, func(t *testing.T) {
				sc, err := benchkit.NewSchedScale(10_000, rec)
				if err != nil {
					t.Fatal(err)
				}
				sc.OnArrival = onArrival
				sc.Warm()
				if allocs := testing.AllocsPerRun(100, sc.Cycle); allocs != 0 {
					t.Errorf("steady-state scheduling cycle allocated %.0f objects per run, want 0", allocs)
				}
			})
		}
	}
}

// TestRoundOneFairnessUnderChurn pins the reservation round's long-run
// fairness across membership churn. One node whose outstanding bound is
// exactly one generic unit serves exactly one request per tick, so the
// rotating round-one start alone decides who it goes to; zero reservations
// clamp every balance to zero, which passes the non-negative gate every
// visit. Over any phase the per-subscriber service counts must stay within
// ±1 — including phases right after removing a member mid-rotation and
// inserting a newcomer whose ID sorts into the middle of the rotation
// order, the skew the old fixed rotation pointer produced.
func TestRoundOneFairnessUnderChurn(t *testing.T) {
	const k = 7
	const lapsPerPhase = 10
	mk := func(id string) qos.Subscriber {
		return qos.Subscriber{ID: qos.SubscriberID(id), Reservation: 0, QueueLimit: 1024}
	}
	subs := make([]qos.Subscriber, 0, k)
	for i := 0; i < k; i++ {
		// Even IDs c00,c02,…: churn inserts the odd ones between them.
		subs = append(subs, mk(fmt.Sprintf("c%02d", 2*i)))
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
	fill := func(id qos.SubscriberID, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			nextID++
			if err := sched.Enqueue(core.Request{ID: nextID, Subscriber: id}); err != nil {
				t.Fatalf("Enqueue(%s): %v", id, err)
			}
		}
	}
	members := make([]qos.SubscriberID, 0, k)
	for _, s := range subs {
		members = append(members, s.ID)
		fill(s.ID, 600) // deep backlog: never drains within the test
	}

	rep := core.UsageReport{Node: 1, BySubscriber: make(map[qos.SubscriberID]core.SubscriberUsage, 1)}
	runPhase := func(ticks int) map[qos.SubscriberID]int {
		t.Helper()
		counts := make(map[qos.SubscriberID]int, k)
		for i := 0; i < ticks; i++ {
			disp := sched.Tick()
			if len(disp) != 1 {
				t.Fatalf("tick dispatched %d requests, want exactly 1 (one-unit bound)", len(disp))
			}
			d := disp[0]
			counts[d.Req.Subscriber]++
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
		counts := runPhase(lapsPerPhase * len(members))
		if len(counts) > len(members) {
			t.Fatalf("round %d: dispatched to %d subscribers, only %d registered: %v",
				round, len(counts), len(members), counts)
		}
		lo, hi := counts[members[0]], counts[members[0]]
		for _, id := range members[1:] {
			if c := counts[id]; c < lo {
				lo = c
			} else if c > hi {
				hi = c
			}
		}
		if hi-lo > 1 {
			t.Fatalf("round %d: visit counts spread %d (min %d, max %d): %v",
				round, hi-lo, lo, hi, counts)
		}

		// Churn: drop a member at a rotating position and insert a newcomer
		// mid-rotation-order; the next phase must be just as fair.
		victim := members[(round*3)%len(members)]
		if _, err := sched.RemoveSubscriber(victim); err != nil {
			t.Fatalf("RemoveSubscriber(%s): %v", victim, err)
		}
		for i, id := range members {
			if id == victim {
				members = append(members[:i], members[i+1:]...)
				break
			}
		}
		newcomer := fmt.Sprintf("c%02d", 2*round+1)
		if err := sched.AddSubscriber(mk(newcomer)); err != nil {
			t.Fatalf("AddSubscriber(%s): %v", newcomer, err)
		}
		members = append(members, qos.SubscriberID(newcomer))
		fill(qos.SubscriberID(newcomer), 600)
	}
}
