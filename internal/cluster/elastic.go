package cluster

import (
	"fmt"
	"time"

	"gage/internal/admitctl"
	"gage/internal/core"
	"gage/internal/flightrec"
	"gage/internal/obs"
	"gage/internal/qos"
	"gage/internal/workload"
)

// This file is the simulator's admission control plane: scripted elasticity
// events — subscriber admissions, resizes, removals and node add/drain —
// applied at exact virtual times through the same admitctl policy the live
// dispatcher's admin API uses. Same (workload, schedule) ⇒ identical
// outcome log, so elasticity drills are as replayable as fault drills.

// AdmissionKind selects the elastic operation of one scripted event.
type AdmissionKind int

const (
	// AdmitSubscriber registers Event.Subscriber if the pool has capacity.
	AdmitSubscriber AdmissionKind = iota + 1
	// ResizeSubscriber changes SubscriberID's reservation to Reservation.
	ResizeSubscriber
	// RemoveSubscriber unregisters SubscriberID; its queued requests are
	// orphaned and counted in Result.OrphanedReqs.
	RemoveSubscriber
	// AddNode grows the pool with a fresh RPN entering at the bottom of the
	// slow-start ramp, exactly like a node recovering from a breaker trip.
	AddNode
	// DrainNode stops dispatching to Node (graceful scale-in); refused when
	// the shrunk pool could no longer back the committed reservations,
	// unless Force is set.
	DrainNode
)

// String names the kind for logs and test failures.
func (k AdmissionKind) String() string {
	switch k {
	case AdmitSubscriber:
		return "admit-subscriber"
	case ResizeSubscriber:
		return "resize-subscriber"
	case RemoveSubscriber:
		return "remove-subscriber"
	case AddNode:
		return "add-node"
	case DrainNode:
		return "drain-node"
	}
	return fmt.Sprintf("admission-kind(%d)", int(k))
}

// AdmissionEvent is one scripted control-plane operation. At counts from the
// start of the run (warmup included), like request arrivals and fault events.
type AdmissionEvent struct {
	At   time.Duration
	Kind AdmissionKind

	// Subscriber is the full definition for AdmitSubscriber.
	Subscriber qos.Subscriber
	// SubscriberID targets ResizeSubscriber and RemoveSubscriber.
	SubscriberID qos.SubscriberID
	// Reservation is ResizeSubscriber's new reservation.
	Reservation qos.GRPS

	// Node targets AddNode and DrainNode.
	Node core.NodeID
	// NodeSpeed scales the added RPN's CPU/disk rate (0 → Options.RPNSpeed).
	NodeSpeed float64
	// Force applies a DrainNode even when the policy finds it infeasible.
	Force bool
}

// AdmissionOutcome records how one scripted event fared: the policy's full
// decision, whether the operation was applied, and the committed reservation
// total after the event — a rejected event must leave it unchanged.
type AdmissionOutcome struct {
	At         time.Duration
	Kind       AdmissionKind
	Subscriber qos.SubscriberID
	Node       core.NodeID

	Decision admitctl.Decision
	// Applied is true when the operation changed scheduler state (a forced
	// drain is applied even though its decision says infeasible).
	Applied bool
	// Err holds a mechanical failure (unknown subscriber, duplicate node)
	// distinct from a policy refusal, which lives in Decision.
	Err string
	// CommittedAfter is the cluster's committed reservation total after the
	// event settled.
	CommittedAfter qos.GRPS
}

// Elasticity drill geometry: two 100-GRPS RPNs (200-GRPS pool), two
// standing sites committed to 100 GRPS, and a scripted mid-run sequence —
// admit site3, resize it up, add a third node, drain node 2, refuse an
// infeasible admission, remove site3 — all on the virtual clock.
const (
	ElasticityDrillWarmup   = 2 * time.Second
	ElasticityDrillDuration = 16 * time.Second
)

// ElasticityDrillOptions is the deterministic acceptance drill for the
// scripted admission plane (`make chaos-elastic`, `gagebench elastic`).
// rec may be nil; with a recorder the cycle log audits offline via
// `gagetrace audit -warmup 2s`.
func ElasticityDrillOptions(rec *flightrec.Recorder) Options {
	generic := qos.GenericCost()
	return Options{
		Subscribers: []qos.Subscriber{
			{ID: "site1", Hosts: []string{"site1.example"}, Reservation: 60},
			{ID: "site2", Hosts: []string{"site2.example"}, Reservation: 40},
		},
		Sources: []workload.Source{
			mustConstSource("site1", "site1.example", 70, generic),
			mustConstSource("site2", "site2.example", 48, generic),
			// site3's clients are knocking before it is signed: until the
			// admit event lands its requests are unclassifiable and vanish
			// at the RDN's edge.
			mustConstSource("site3", "site3.example", 50, generic),
		},
		NumRPNs:  2,
		Recorder: rec,
		Admissions: []AdmissionEvent{
			{At: 4 * time.Second, Kind: AdmitSubscriber,
				Subscriber: qos.Subscriber{ID: "site3", Hosts: []string{"site3.example"}, Reservation: 30}},
			{At: 7 * time.Second, Kind: ResizeSubscriber, SubscriberID: "site3", Reservation: 60},
			{At: 9 * time.Second, Kind: AddNode, Node: 3},
			{At: 11 * time.Second, Kind: DrainNode, Node: 2},
			// 160 GRPS committed against a 200-GRPS enabled pool (nodes 1
			// and 3): a 500-GRPS newcomer must be refused.
			{At: 13 * time.Second, Kind: AdmitSubscriber,
				Subscriber: qos.Subscriber{ID: "site4", Hosts: []string{"site4.example"}, Reservation: 500}},
			{At: 15 * time.Second, Kind: RemoveSubscriber, SubscriberID: "site3"},
		},
		Warmup:   ElasticityDrillWarmup,
		Duration: ElasticityDrillDuration,
	}
}

// elasticState is the harness-side control plane: it applies each scripted
// admission event to the simulation's (single) front end and keeps the
// outcome log.
type elasticState struct {
	sim *sim

	orphaned           int
	accepted, rejected int
	log                []AdmissionOutcome
}

// admitPolicy is the scripted plane's admission policy: admitctl's default,
// under which reservations may commit all of the enabled capacity.
var admitPolicy = admitctl.Config{}

// apply executes one scripted event against the live run. Refusals — policy
// or mechanical — change nothing; every outcome lands in the log.
func (es *elasticState) apply(ev AdmissionEvent) {
	s := es.sim
	sched, rec := s.fronts[0].sched, s.fronts[0].rec
	out := AdmissionOutcome{At: ev.At, Kind: ev.Kind, Node: ev.Node}
	switch ev.Kind {
	case AdmitSubscriber:
		sub := ev.Subscriber
		out.Subscriber = sub.ID
		d := admitctl.Evaluate(admitPolicy, sched.TotalReservation(), sub.Reservation, sched.EnabledCapacity())
		out.Decision = d
		if !d.Accepted {
			break
		}
		if err := sched.AddSubscriber(sub); err != nil {
			out.Err = err.Error()
			break
		}
		s.dyn.Add(sub.ID, sub.Hosts...)
		s.define(sub)
		rec.Annotate(flightrec.TierEvent{Kind: "sub-admit", Group: string(sub.ID), To: int(sub.Reservation)})
		out.Applied = true

	case ResizeSubscriber:
		out.Subscriber = ev.SubscriberID
		old, ok := sched.Reservation(ev.SubscriberID)
		if !ok {
			out.Err = fmt.Sprintf("unknown subscriber %q", ev.SubscriberID)
			break
		}
		d := admitctl.Evaluate(admitPolicy, sched.TotalReservation(), ev.Reservation-old, sched.EnabledCapacity())
		out.Decision = d
		if !d.Accepted {
			break
		}
		if err := sched.ResizeReservation(ev.SubscriberID, ev.Reservation); err != nil {
			out.Err = err.Error()
			break
		}
		def := s.subs[ev.SubscriberID].def
		def.Reservation = ev.Reservation
		s.define(def)
		rec.Annotate(flightrec.TierEvent{Kind: "sub-resize", Group: string(ev.SubscriberID), From: int(old), To: int(ev.Reservation)})
		out.Applied = true

	case RemoveSubscriber:
		out.Subscriber = ev.SubscriberID
		old, ok := sched.Reservation(ev.SubscriberID)
		if !ok {
			out.Err = fmt.Sprintf("unknown subscriber %q", ev.SubscriberID)
			break
		}
		out.Decision = admitctl.Evaluate(admitPolicy, sched.TotalReservation(), -old, sched.EnabledCapacity())
		orphans, err := sched.RemoveSubscriber(ev.SubscriberID)
		if err != nil {
			out.Err = err.Error()
			break
		}
		s.dyn.Remove(ev.SubscriberID)
		es.orphaned += len(orphans)
		// The record stays: the removed subscriber's result row still
		// assembles, frozen at its last reservation.
		rec.Annotate(flightrec.TierEvent{Kind: "sub-remove", Group: string(ev.SubscriberID), From: int(old)})
		out.Applied = true

	case AddNode:
		if err := s.addRPN(ev); err != nil {
			out.Err = err.Error()
			break
		}
		// Growing the pool cannot break a guarantee; the zero-delta
		// evaluation records the post-add committed/capacity state.
		out.Decision = admitctl.Evaluate(admitPolicy, sched.TotalReservation(), 0, sched.EnabledCapacity())
		rec.Annotate(flightrec.TierEvent{Kind: "node-add", To: int(ev.Node)})
		out.Applied = true

	case DrainNode:
		n, ok := s.nodeByID[ev.Node]
		if !ok {
			out.Err = fmt.Sprintf("unknown node %d", ev.Node)
			break
		}
		// A breaker-disabled node backs no guarantees, so draining it
		// removes nothing from the feasibility inequality.
		leaving := n.rpn.Capacity()
		if !sched.NodeEnabled(ev.Node) {
			leaving = qos.Vector{}
		}
		d := admitctl.NodeRemovalFeasible(admitPolicy, sched.TotalReservation(), sched.EnabledCapacity(), leaving)
		out.Decision = d
		if !d.Accepted && !ev.Force {
			break
		}
		s.book.drain(n)
		rec.Annotate(flightrec.TierEvent{Kind: "node-drain", To: int(ev.Node)})
		out.Applied = true

	default:
		out.Err = fmt.Sprintf("unknown admission kind %d", int(ev.Kind))
	}
	out.CommittedAfter = sched.TotalReservation()
	if out.Applied {
		es.accepted++
	} else {
		es.rejected++
	}
	es.log = append(es.log, out)
	// Every scripted outcome — applied, policy-refused, or mechanically
	// failed — lands on the event bus, so a violation investigation sees the
	// control-plane decision that did (or pointedly did not) change capacity.
	code := "accepted"
	switch {
	case out.Err != "":
		code = "error"
	case !out.Applied:
		code = out.Decision.Code
	}
	s.opts.Bus.Publish(obs.Event{Kind: obs.KindAdmin, Sub: string(out.Subscriber),
		Node: int(out.Node), Detail: ev.Kind.String() + ":" + code})
}
