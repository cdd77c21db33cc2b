package cluster

import (
	"sort"
	"time"

	"gage/internal/breaker"
	"gage/internal/core"
	"gage/internal/metrics"
	"gage/internal/obs"
	"gage/internal/qos"
)

// unhealthyAfterMissedAcct is how many consecutive silent accounting cycles
// make the harness's RDN declare an RPN dead and stop dispatching to it —
// the simulator's analogue of dispatch.UnhealthyAfter on the live path.
const unhealthyAfterMissedAcct = 3

// slowStartAcctCycles is the slow-start window mirrored from the live
// dispatcher: a node leaving its breaker re-enters the scheduler at
// 1/(slowStartAcctCycles+1) of its capacity and ramps to full weight over
// that many accounting cycles, so a recovered RPN is not handed a
// thundering herd the instant its first report lands.
const slowStartAcctCycles = 4

// acctMsg is one accounting message in flight RDN-ward, and its own carrier
// across the feedback-latency hop: the node's cumulative counters stamped
// with its incarnation and a send sequence, so delayed messages that arrive
// out of order are recognized as stale instead of being mistaken for a
// counter reset.
type acctMsg struct {
	node  *nodeEntry
	seq   int
	epoch int
	cum   core.UsageReport
}

// inflight is one dispatch awaiting settlement: the subscriber it was
// charged to and the front end whose scheduler holds the charge.
type inflight struct {
	sub   qos.SubscriberID
	front *frontEnd
}

// nodeEntry is one RPN's row of simulator state — the twin of the live
// dispatcher's record of the same name, with breaker, acct and draining
// meaning what they mean there. It is made once, when the node joins, and
// every hop that has resolved it (a flight, an accounting message, a fault
// event) keeps the pointer. The settlement book writes the health and
// accounting fields; the event loop writes the two series.
type nodeEntry struct {
	rpn *RPN
	// crashed is true between a NodeCrash and its NodeRecover: the node
	// answers no accounting cycle and loses every dispatch that reaches it.
	crashed bool
	// draining pins the node's scheduler weight at 0 regardless of breaker
	// state — graceful scale-in must not be undone by a healthy breaker's
	// ramp on the next accounting tick.
	draining bool
	// breaker is the node's accounting-feedback health: it trips on the
	// missed-cycle streak and ramps the node back through slow start after
	// recovery. The sim only ever feeds the Poll source — there is no
	// separate request path to probe — so recovery is always "first
	// delivered report re-enables, at reduced weight".
	breaker *breaker.Breaker
	// inflight is the node's share of the settlement book, by request id.
	inflight map[uint64]inflight
	// acct is the cumulative-report differ's state.
	acct nodeAcct
	// weights samples the node's scheduler weight once per accounting cycle
	// and dispatches one unit per dispatch decision (Result.NodeWeights and
	// Result.NodeDispatches).
	weights, dispatches metrics.Series
}

// nodeAcct is one node's accounting-feedback state: sendSeq stamps its next
// message; lastSeq, lastEp and lastSeen are the sequence, incarnation and
// cumulative counters of the last message the differ folded.
type nodeAcct struct {
	sendSeq, lastSeq, lastEp int
	lastSeen                 core.UsageReport
}

// newNodeEntry makes the record of a node joining the pool. One present from
// the start is trusted at full weight; one added mid-run (ramping) enters
// through a ramping breaker — weight 1/(slowStart+1), climbing one step per
// accounting tick — so a scale-out joins exactly like a node recovering from
// a breaker trip rather than being handed a thundering herd.
func newNodeEntry(r *RPN, ramping bool) *nodeEntry {
	cfg := breaker.Config{Threshold: unhealthyAfterMissedAcct, SlowStart: slowStartAcctCycles}
	mk := breaker.New
	if ramping {
		mk = breaker.NewRamping
	}
	n := &nodeEntry{rpn: r, breaker: mk(cfg), inflight: make(map[uint64]inflight)}
	n.acct.lastSeq = -1
	return n
}

// weight reports the node's current scheduler weight: the breaker's, pinned
// at 0 while the node drains.
func (n *nodeEntry) weight() float64 {
	if n.draining {
		return 0
	}
	return n.breaker.Weight()
}

// chaosRun is the feedback book over the node records: the bookkeeping that
// makes every dispatch settle exactly once and turns missing feedback into
// failure detection. It exists on every run (fault plan or not, one front
// end or a tier) so the settlement invariant is always audited for free. A
// node's health is one fact about the RPN, so weight changes apply to every
// live front end's scheduler; a charge belongs to one scheduler, so a reclaim
// goes back to the front end that dispatched it.
type chaosRun struct {
	fronts []*frontEnd

	// fenced counts dispatches refused at delivery because their epoch stamp
	// belonged to a deposed owner.
	dispatched, delivered, reclaimed, fenced int
	balanceViolations                        int

	// The accounting maps rotate, as they do through the live dispatcher's
	// poller: a snapshot map the book is done with — superseded in a node's
	// lastSeen, or arrived stale — goes to cumFree for a later send, and every
	// delta is diffed into the one deltaScratch.
	cumFree      []map[qos.SubscriberID]core.SubscriberUsage
	deltaScratch map[qos.SubscriberID]core.SubscriberUsage

	// bus, when non-nil, receives one event per breaker state transition —
	// the failure-detection half of a crash's causal story.
	bus *obs.Bus
}

func newChaosRun(fronts []*frontEnd, bus *obs.Bus) *chaosRun {
	return &chaosRun{fronts: fronts, bus: bus, deltaScratch: make(map[qos.SubscriberID]core.SubscriberUsage)}
}

// drain marks a node draining and zeroes its scheduler weight; in-flight
// accounting keeps settling normally.
func (cs *chaosRun) drain(n *nodeEntry) {
	n.draining = true
	for _, fe := range cs.fronts {
		if fe.alive {
			// Known nodes cannot fail to drain.
			_, _ = fe.sched.DrainNode(n.rpn.id)
		}
	}
}

// track records a dispatch as in flight on its node.
func (cs *chaosRun) track(n *nodeEntry, reqID uint64, sub qos.SubscriberID, fe *frontEnd) {
	cs.dispatched++
	n.inflight[reqID] = inflight{sub: sub, front: fe}
}

// complete settles one delivered request.
func (cs *chaosRun) complete(n *nodeEntry, reqID uint64) {
	delete(n.inflight, reqID)
	cs.delivered++
}

// giveBack settles one dispatch that will never complete: its charge goes
// back to the scheduler that made it, so the node's capacity and the
// subscriber's in-flight estimate do not leak. A dispatcher that has itself
// crashed since took the charge with it.
func (cs *chaosRun) giveBack(n *nodeEntry, reqID uint64) {
	e := n.inflight[reqID]
	delete(n.inflight, reqID)
	if e.front.alive {
		e.front.sched.ReleaseDispatch(e.sub, n.rpn.id, reqID)
	}
}

// reclaimOne settles one request lost to a node crash.
func (cs *chaosRun) reclaimOne(n *nodeEntry, reqID uint64) {
	cs.reclaimed++
	cs.giveBack(n, reqID)
}

// lostOnWire reports whether a dispatch arriving at its node is lost to a
// crash, settling it if nothing has yet. A crash that fell while the
// dispatch was on the wire swept it out of the book with everything else in
// flight there: the sweep owns that reclaim and the arrival finds nothing to
// give back. A dispatch sent to a node already down — the schedulers keep
// choosing it until the missed-accounting streak trips — is reclaimed here.
func (cs *chaosRun) lostOnWire(n *nodeEntry, reqID uint64) bool {
	if _, tracked := n.inflight[reqID]; !tracked {
		return true
	}
	if n.crashed {
		cs.reclaimOne(n, reqID)
		return true
	}
	return false
}

// fenceOne settles one request refused at the delivery fence.
func (cs *chaosRun) fenceOne(n *nodeEntry, reqID uint64) {
	cs.fenced++
	cs.giveBack(n, reqID)
}

// crash fail-stops a node: every request in flight there is reclaimed and
// the RPN restarts cold. The schedulers keep dispatching to the node until
// the missed-accounting streak disables it — an RDN has no crash oracle.
func (cs *chaosRun) crash(n *nodeEntry) {
	n.crashed = true
	// Reclaim in request-ID order: scheduler release math clamps at zero,
	// so a deterministic order keeps chaos runs byte-replayable.
	ids := make([]uint64, 0, len(n.inflight))
	for reqID := range n.inflight {
		ids = append(ids, reqID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, reqID := range ids {
		cs.reclaimOne(n, reqID)
	}
	n.rpn.Crash()
}

// recover brings a crashed node back; it resumes answering accounting
// cycles, and the first delivered report re-enables it.
func (cs *chaosRun) recover(n *nodeEntry) {
	n.crashed = false
}

// missAcct records one silent accounting cycle for a node; at the streak
// threshold the breaker opens and the node's scheduler weight drops to 0.
func (cs *chaosRun) missAcct(n *nodeEntry, now time.Time) {
	cs.noteBreaker(n, n.breaker.Failure(breaker.Poll, now))
}

// ackAcct records one delivered report. A tripped breaker closes — the poll
// is its own probe — and the node rejoins the schedulers at the bottom of
// the slow-start ramp rather than at full weight.
func (cs *chaosRun) ackAcct(n *nodeEntry, now time.Time) {
	cs.noteBreaker(n, n.breaker.Success(breaker.Poll, now))
}

// tickAcct advances breaker time one accounting cycle: the slow-start ramp
// climbs one step for closed breakers.
func (cs *chaosRun) tickAcct(n *nodeEntry, now time.Time) {
	cs.noteBreaker(n, n.breaker.Tick(now))
}

// noteBreaker follows one breaker input: a state transition lands on the
// event bus, and the schedulers' admission weight is brought back into
// lockstep with the breaker — the single place health changes what a
// scheduler may dispatch.
func (cs *chaosRun) noteBreaker(n *nodeEntry, transitioned bool) {
	if transitioned {
		cs.bus.Publish(obs.Event{Kind: obs.KindBreaker, Node: int(n.rpn.id),
			Stage: n.breaker.State().String(), Detail: breaker.Poll.String()})
	}
	w := n.weight()
	for _, fe := range cs.fronts {
		if fe.alive {
			// Known nodes cannot fail to update.
			_ = fe.sched.SetNodeWeight(n.rpn.id, w)
		}
	}
}

// send stamps a node's next accounting message: its cumulative report, taken
// into a map the book has finished with when there is one, under the node's
// incarnation and next send sequence.
func (cs *chaosRun) send(n *nodeEntry) acctMsg {
	var into map[qos.SubscriberID]core.SubscriberUsage
	if k := len(cs.cumFree); k > 0 {
		into, cs.cumFree = cs.cumFree[k-1], cs.cumFree[:k-1]
	}
	msg := acctMsg{node: n, seq: n.acct.sendSeq, epoch: n.rpn.Epoch(), cum: n.rpn.Accountant().CumulativeReportInto(into)}
	n.acct.sendSeq++
	return msg
}

// deliverAcct folds one arriving accounting message into the delta the
// schedulers consume. Stale messages (an older send overtaken by a newer
// one inside a delay window) return ok=false and must be ignored. A message
// from a new incarnation is a counter reset: the fresh cumulative IS the
// delta, exactly as the live dispatcher's poller sees a restarted backend.
// The delta's map is the book's scratch: it is good until the next delivery.
func (cs *chaosRun) deliverAcct(msg acctMsg) (core.UsageReport, bool) {
	a := &msg.node.acct
	if msg.epoch == a.lastEp && msg.seq <= a.lastSeq {
		cs.cumFree = append(cs.cumFree, msg.cum.BySubscriber)
		return core.UsageReport{}, false
	}
	prev := a.lastSeen
	superseded := prev.BySubscriber
	if msg.epoch != a.lastEp {
		prev = core.UsageReport{} // restarted: counters began again at zero
	}
	a.lastSeq, a.lastEp, a.lastSeen = msg.seq, msg.epoch, msg.cum
	delta := core.DiffUsageReports(msg.cum, prev, cs.deltaScratch)
	if superseded != nil {
		cs.cumFree = append(cs.cumFree, superseded)
	}
	return delta, true
}
