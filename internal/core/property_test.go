package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gage/internal/qos"
)

// checkSchedulerInvariants asserts the scheduler's internal accounting
// identities, which every interleaving of Enqueue/Submit/Tick/ReportUsage/
// CancelQueued/ReleaseDispatch/Redispatch/AddSubscriber/ResizeReservation/
// RemoveSubscriber/AddNode/DrainNode/RemoveNode must preserve:
//
//  1. every balance sits inside its clamp band ±reservation×CreditWindow;
//  2. each subscriber's per-node estimate equals the sum of its pending
//     dispatch-time predictions on that node (credits are conserved — no
//     charge is ever lost or double-released);
//  3. each node's outstanding load equals the sum of all subscribers'
//     estimates on it, is never negative, and bounds the optimistic drain;
//  4. the group layer reconciles: every group's member count and aggregate
//     reservation match the registered definitions, active member lists are
//     sorted and consistent with per-queue flags, every backlogged queue is
//     on its group's list, and the active-group list holds exactly the
//     groups with a non-empty active list, sorted by name.
func checkSchedulerInvariants(t *testing.T, s *Scheduler, step string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, q := range s.subs {
		lim := q.res.PerCycle(s.cfg.CreditWindow)
		if !lim.Dominates(q.balance) || !q.balance.Dominates(lim.Neg()) {
			t.Fatalf("%s: subscriber %s balance %+v outside clamp band ±%+v", step, id, q.balance, lim)
		}
		var estSum qos.Vector
		for idx, est := range q.estimated {
			n := s.nodeList[idx].id
			var sum qos.Vector
			pq := &q.pending[idx]
			for i := 0; i < pq.size(); i++ {
				sum = sum.Add(pq.at(i).predicted)
			}
			if est != sum {
				t.Fatalf("%s: subscriber %s node %d estimate %+v != pending sum %+v",
					step, id, n, est, sum)
			}
			if est.AnyNegative() {
				t.Fatalf("%s: subscriber %s node %d estimate went negative: %+v", step, id, n, est)
			}
			estSum = estSum.Add(est)
		}
		if q.estTotal != estSum {
			t.Fatalf("%s: subscriber %s cached estTotal %+v != Σ per-node estimates %+v",
				step, id, q.estTotal, estSum)
		}
	}
	// Group-layer reconciliation against the registered definitions.
	wantMembers := make(map[*groupState]int, len(s.groups))
	wantAgg := make(map[*groupState]qos.GRPS, len(s.groups))
	for id, def := range s.defs {
		if def.grp == nil {
			t.Fatalf("%s: subscriber %s registered without a group", step, id)
		}
		if s.groups[def.grp.name] != def.grp {
			t.Fatalf("%s: subscriber %s points at a group %q not in the index", step, id, def.grp.name)
		}
		wantMembers[def.grp]++
		wantAgg[def.grp] += def.res
	}
	for name, g := range s.groups {
		if g.name != name {
			t.Fatalf("%s: group indexed as %q names itself %q", step, name, g.name)
		}
		if g.members != wantMembers[g] {
			t.Fatalf("%s: group %q counts %d members, definitions say %d", step, name, g.members, wantMembers[g])
		}
		if d := float64(g.aggRes - wantAgg[g]); d > 1e-6 || d < -1e-6 {
			t.Fatalf("%s: group %q aggregate reservation %v, Σ member reservations %v (credit leaked across migrations)",
				step, name, g.aggRes, wantAgg[g])
		}
		if g.aggRes < 0 {
			t.Fatalf("%s: group %q aggregate reservation negative: %v", step, name, g.aggRes)
		}
		if len(g.active) > 0 && (g.astart < 0 || g.astart >= len(g.active)) {
			t.Fatalf("%s: group %q rotation pointer %d outside active list of %d", step, name, g.astart, len(g.active))
		}
		for i, q := range g.active {
			if q.grp != g {
				t.Fatalf("%s: group %q active list holds %s, which belongs to %q", step, name, q.id, q.grp.name)
			}
			if !q.inActive {
				t.Fatalf("%s: group %q active list holds %s with inActive=false", step, name, q.id)
			}
			if i > 0 && g.active[i-1].id >= q.id {
				t.Fatalf("%s: group %q active list unsorted at %d: %s !< %s", step, name, i, g.active[i-1].id, q.id)
			}
		}
		if g.inActive != (len(g.active) > 0) {
			t.Fatalf("%s: group %q inActive=%v with %d active members", step, name, g.inActive, len(g.active))
		}
	}
	for id, q := range s.subs {
		if q.qlen() > 0 && !q.inActive {
			t.Fatalf("%s: subscriber %s has %d queued requests but is off its group's active list", step, id, q.qlen())
		}
	}
	for i, g := range s.activeGroups {
		if !g.inActive {
			t.Fatalf("%s: active-group list holds parked group %q", step, g.name)
		}
		if i > 0 && s.activeGroups[i-1].name >= g.name {
			t.Fatalf("%s: active-group list unsorted at %d: %q !< %q", step, i, s.activeGroups[i-1].name, g.name)
		}
	}
	activeCount := 0
	for _, g := range s.groups {
		if g.inActive {
			activeCount++
		}
	}
	if activeCount != len(s.activeGroups) {
		t.Fatalf("%s: %d groups flagged active but the list holds %d", step, activeCount, len(s.activeGroups))
	}
	for nid, nd := range s.nodes {
		var sum qos.Vector
		for _, q := range s.subs {
			if q.estimated != nil {
				sum = sum.Add(q.estimated[nd.idx])
			}
		}
		if nd.outstanding != sum {
			t.Fatalf("%s: node %d outstanding %+v != Σ subscriber estimates %+v",
				step, nid, nd.outstanding, sum)
		}
		if nd.outstanding.AnyNegative() {
			t.Fatalf("%s: node %d outstanding went negative: %+v", step, nid, nd.outstanding)
		}
		if !nd.outstanding.Dominates(nd.drained) {
			t.Fatalf("%s: node %d drained %+v exceeds outstanding %+v",
				step, nid, nd.drained, nd.outstanding)
		}
	}
}

// propEntry is one harness-tracked in-flight dispatch.
type propEntry struct {
	id  uint64
	sub qos.SubscriberID
}

func TestSchedulerOpInterleavingsPreserveInvariants(t *testing.T) {
	subs := []qos.Subscriber{
		{ID: "hi", Reservation: 100, QueueLimit: 16},
		{ID: "lo", Reservation: 10, QueueLimit: 16},
		{ID: "zero", Reservation: 0, QueueLimit: 16},
	}
	baseSubs := []qos.SubscriberID{"hi", "lo", "zero"}

	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nodeIDs := []NodeID{1, 2, 3} // live pool; elasticity ops mutate it
			var nodes []NodeConfig
			for _, id := range nodeIDs {
				nodes = append(nodes, NodeConfig{ID: id, Capacity: nodeCap()})
			}
			s := mustScheduler(t, subs, nodes, Config{})

			// Hosting churn pool: dynamic subscribers signed and dropped
			// mid-run. subIDs always holds the currently registered set (the
			// base three are never removed).
			subIDs := append([]qos.SubscriberID(nil), baseSubs...)
			dynPresent := make(map[qos.SubscriberID]bool)

			queued := make(map[qos.SubscriberID][]uint64) // per-sub FIFO of queued IDs
			inflight := make(map[NodeID][]propEntry)      // per-node dispatch order
			var nextID uint64

			nodesWithWork := func() []NodeID {
				var out []NodeID
				for _, n := range nodeIDs {
					if len(inflight[n]) > 0 {
						out = append(out, n)
					}
				}
				return out
			}
			// purgeSub forgets a removed subscriber's harness tracking: its
			// queued requests were orphaned and its in-flight charges released
			// by RemoveSubscriber.
			purgeSub := func(sub qos.SubscriberID) {
				delete(queued, sub)
				for n, fl := range inflight {
					kept := fl[:0]
					for _, e := range fl {
						if e.sub != sub {
							kept = append(kept, e)
						}
					}
					inflight[n] = kept
				}
			}

			for op := 0; op < 400; op++ {
				step := fmt.Sprintf("op %d", op)
				switch k := rng.Intn(100); {
				case k < 35: // a burst arrives: queued for the tick, or submitted
					sub := subIDs[rng.Intn(len(subIDs))]
					onArrival := rng.Intn(2) == 0
					for i := 0; i < 1+rng.Intn(4); i++ {
						nextID++
						req := Request{ID: nextID, Subscriber: sub}
						var d Dispatch
						var now bool
						var err error
						if onArrival {
							d, now, err = s.Submit(req)
						} else {
							err = s.Enqueue(req)
						}
						if errors.Is(err, ErrQueueFull) {
							nextID-- // not admitted; harness forgets it
							break
						} else if err != nil {
							t.Fatalf("%s: admit: %v", step, err)
						}
						if !now {
							queued[sub] = append(queued[sub], nextID)
							continue
						}
						if d.Req.ID != nextID || len(queued[sub]) != 0 {
							t.Fatalf("%s: Submit dispatched %d for %s past its queue %v (submitted %d)",
								step, d.Req.ID, sub, queued[sub], nextID)
						}
						inflight[d.Node] = append(inflight[d.Node], propEntry{id: nextID, sub: sub})
					}
				case k < 55: // scheduling tick
					for _, d := range s.Tick() {
						fifo := queued[d.Req.Subscriber]
						if len(fifo) == 0 || fifo[0] != d.Req.ID {
							t.Fatalf("%s: dispatch %d for %s violates FIFO (queue %v)",
								step, d.Req.ID, d.Req.Subscriber, fifo)
						}
						queued[d.Req.Subscriber] = fifo[1:]
						inflight[d.Node] = append(inflight[d.Node], propEntry{id: d.Req.ID, sub: d.Req.Subscriber})
					}
				case k < 70: // accounting message completing a prefix of a node's work
					ns := nodesWithWork()
					if len(ns) == 0 {
						continue
					}
					n := ns[rng.Intn(len(ns))]
					c := 1 + rng.Intn(len(inflight[n]))
					rep := UsageReport{Node: n, BySubscriber: make(map[qos.SubscriberID]SubscriberUsage)}
					// Per-request usage between 0.25× and 4× the generic cost:
					// under- and over-prediction both exercise the clamp.
					cost := qos.GenericCost().Scale(0.25 + 3.75*rng.Float64())
					for _, e := range inflight[n][:c] {
						u := rep.BySubscriber[e.sub]
						u.Usage = u.Usage.Add(cost)
						u.Completed++
						rep.BySubscriber[e.sub] = u
						rep.Total = rep.Total.Add(cost)
					}
					inflight[n] = inflight[n][c:]
					if err := s.ReportUsage(rep); err != nil {
						t.Fatalf("%s: ReportUsage: %v", step, err)
					}
				case k < 78: // abandon a queued request (any position, not just head)
					sub := subIDs[rng.Intn(len(subIDs))]
					if len(queued[sub]) == 0 {
						continue
					}
					i := rng.Intn(len(queued[sub]))
					id := queued[sub][i]
					if !s.CancelQueued(sub, id) {
						t.Fatalf("%s: CancelQueued(%s, %d) = false for a queued request", step, sub, id)
					}
					queued[sub] = append(queued[sub][:i], queued[sub][i+1:]...)
				case k < 84: // abandon an in-flight dispatch
					ns := nodesWithWork()
					if len(ns) == 0 {
						continue
					}
					n := ns[rng.Intn(len(ns))]
					i := rng.Intn(len(inflight[n]))
					e := inflight[n][i]
					if !s.ReleaseDispatch(e.sub, n, e.id) {
						t.Fatalf("%s: ReleaseDispatch(%s, %d, %d) = false for an in-flight charge", step, e.sub, n, e.id)
					}
					inflight[n] = append(inflight[n][:i], inflight[n][i+1:]...)
				case k < 87: // move an in-flight charge off its node
					ns := nodesWithWork()
					if len(ns) == 0 {
						continue
					}
					n := ns[rng.Intn(len(ns))]
					i := rng.Intn(len(inflight[n]))
					e := inflight[n][i]
					inflight[n] = append(inflight[n][:i], inflight[n][i+1:]...)
					if alt, ok := s.Redispatch(e.sub, e.id, n); ok {
						inflight[alt] = append(inflight[alt], e)
					} // else: no alternate had room; the charge is released
				case k < 95: // hosting churn: sign, resize, or drop a subscriber
					switch rng.Intn(3) {
					case 0: // sign a dynamic subscriber (if a slot is free)
						id := qos.SubscriberID(fmt.Sprintf("dyn%d", rng.Intn(4)))
						if dynPresent[id] {
							continue
						}
						sub := qos.Subscriber{
							ID:          id,
							Reservation: qos.GRPS(rng.Intn(60)),
							QueueLimit:  16,
						}
						if g := rng.Intn(3); g > 0 {
							sub.Group = fmt.Sprintf("t%d", g)
						}
						if err := s.AddSubscriber(sub); err != nil {
							t.Fatalf("%s: AddSubscriber(%s): %v", step, id, err)
						}
						dynPresent[id] = true
						subIDs = append(subIDs, id)
					case 1: // resize any registered reservation
						sub := subIDs[rng.Intn(len(subIDs))]
						if err := s.ResizeReservation(sub, qos.GRPS(rng.Intn(150))); err != nil {
							t.Fatalf("%s: ResizeReservation(%s): %v", step, sub, err)
						}
					default: // drop a dynamic subscriber
						var dyn []qos.SubscriberID
						for id, ok := range dynPresent {
							if ok {
								dyn = append(dyn, id)
							}
						}
						if len(dyn) == 0 {
							continue
						}
						slices.Sort(dyn) // map order is random; keep the seed deterministic
						id := dyn[rng.Intn(len(dyn))]
						orphans, err := s.RemoveSubscriber(id)
						if err != nil {
							t.Fatalf("%s: RemoveSubscriber(%s): %v", step, id, err)
						}
						if len(orphans) != len(queued[id]) {
							t.Fatalf("%s: RemoveSubscriber(%s) orphaned %d requests, harness tracked %d queued",
								step, id, len(orphans), len(queued[id]))
						}
						delete(dynPresent, id)
						subIDs = slices.Delete(subIDs, slices.Index(subIDs, id), slices.Index(subIDs, id)+1)
						purgeSub(id)
					}
				default: // pool elasticity: add, drain, retire, or flap a node
					switch rng.Intn(4) {
					case 0: // scale out (bounded pool; joins at a random ramp weight)
						if len(nodeIDs) >= 6 {
							continue
						}
						var id NodeID
						for id = 1; slices.Contains(nodeIDs, id); id++ {
						}
						if err := s.AddNode(NodeConfig{ID: id, Capacity: nodeCap()}, rng.Float64()); err != nil {
							t.Fatalf("%s: AddNode(%d): %v", step, id, err)
						}
						nodeIDs = append(nodeIDs, id)
						slices.Sort(nodeIDs)
					case 1: // graceful drain
						n := nodeIDs[rng.Intn(len(nodeIDs))]
						if _, err := s.DrainNode(n); err != nil {
							t.Fatalf("%s: DrainNode(%d): %v", step, n, err)
						}
					case 2: // retire a node; its in-flight charges are released
						if len(nodeIDs) <= 1 {
							continue
						}
						n := nodeIDs[rng.Intn(len(nodeIDs))]
						if err := s.RemoveNode(n); err != nil {
							t.Fatalf("%s: RemoveNode(%d): %v", step, n, err)
						}
						nodeIDs = slices.Delete(nodeIDs, slices.Index(nodeIDs, n), slices.Index(nodeIDs, n)+1)
						delete(inflight, n) // charges released, requests never settle
					default: // flap health
						n := nodeIDs[rng.Intn(len(nodeIDs))]
						if err := s.SetNodeWeight(n, float64(rng.Intn(2))); err != nil {
							t.Fatalf("%s: SetNodeWeight: %v", step, err)
						}
					}
				}
				checkSchedulerInvariants(t, s, step)
			}

			// Settle everything: complete all in-flight work, withdraw all
			// queued requests, and confirm no charge is left anywhere.
			for _, n := range nodeIDs {
				if len(inflight[n]) == 0 {
					continue
				}
				rep := UsageReport{Node: n, BySubscriber: make(map[qos.SubscriberID]SubscriberUsage)}
				for _, e := range inflight[n] {
					u := rep.BySubscriber[e.sub]
					u.Usage = u.Usage.Add(qos.GenericCost())
					u.Completed++
					rep.BySubscriber[e.sub] = u
				}
				inflight[n] = nil
				if err := s.ReportUsage(rep); err != nil {
					t.Fatalf("final ReportUsage: %v", err)
				}
			}
			for sub, ids := range queued {
				for _, id := range ids {
					if !s.CancelQueued(sub, id) {
						t.Fatalf("final CancelQueued(%s, %d) = false", sub, id)
					}
				}
			}
			checkSchedulerInvariants(t, s, "settled")
			for _, n := range nodeIDs {
				if out, _ := s.Outstanding(n); !out.IsZero() {
					t.Errorf("node %d outstanding %+v after full settlement, want zero", n, out)
				}
			}
			for _, sub := range subIDs {
				if l := s.QueueLen(sub); l != 0 {
					t.Errorf("subscriber %s queue length %d after settlement, want 0", sub, l)
				}
			}
		})
	}
}

// TestSchedulerBalanceNeverBelowFloorUnderHostileUsage drives one subscriber
// with usage reports far above its reservation and prediction: the balance
// must pin at the clamp floor, never below, and recover once the overuse
// stops — the property the harness's per-tick balance audit enforces in
// every chaos run.
func TestSchedulerBalanceNeverBelowFloorUnderHostileUsage(t *testing.T) {
	subs := []qos.Subscriber{{ID: "a", Reservation: 10}}
	s := mustScheduler(t, subs, []NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	floor := qos.GRPS(10).PerCycle(s.cfg.CreditWindow).Neg()
	var id uint64
	for round := 0; round < 50; round++ {
		id++
		if err := s.Enqueue(Request{ID: id, Subscriber: "a"}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
		n := 0
		for _, d := range s.Tick() {
			n++
			_ = d
		}
		if n > 0 {
			// Report 20× the generic cost per completion: hostile overuse.
			if err := s.ReportUsage(UsageReport{Node: 1, BySubscriber: map[qos.SubscriberID]SubscriberUsage{
				"a": {Usage: qos.GenericCost().Scale(20 * float64(n)), Completed: n},
			}}); err != nil {
				t.Fatalf("ReportUsage: %v", err)
			}
		}
		b, ok := s.Balance("a")
		if !ok {
			t.Fatal("Balance lookup failed")
		}
		if !b.Dominates(floor) {
			t.Fatalf("round %d: balance %+v fell below clamp floor %+v", round, b, floor)
		}
	}
	// Idle recovery: with no further usage, per-tick credits walk the
	// balance back up to the ceiling.
	for i := 0; i < 1000; i++ {
		s.Tick()
	}
	b, _ := s.Balance("a")
	ceiling := qos.GRPS(10).PerCycle(s.cfg.CreditWindow)
	if b != ceiling {
		t.Errorf("idle balance = %+v, want clamp ceiling %+v", b, ceiling)
	}
}
