package cluster

import (
	"sort"
	"time"

	"gage/internal/breaker"
	"gage/internal/core"
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

// acctMsg is one accounting message in flight RDN-ward: the node's
// cumulative counters stamped with its incarnation and a send sequence, so
// delayed messages that arrive out of order are recognized as stale instead
// of being mistaken for a counter reset.
type acctMsg struct {
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

// chaosRun is the per-RPN feedback book: the bookkeeping that makes every
// dispatch settle exactly once and turns missing feedback into failure
// detection. It exists on every run (fault plan or not, one front end or a
// tier) so the settlement invariant is always audited for free. A node's
// health is one fact about the RPN, so weight changes apply to every live
// front end's scheduler; a charge belongs to one scheduler, so a reclaim
// goes back to the front end that dispatched it.
type chaosRun struct {
	fronts []*frontEnd

	crashed  map[core.NodeID]bool
	inflight map[core.NodeID]map[uint64]inflight
	// draining pins a node's scheduler weight at 0 regardless of breaker
	// state — graceful scale-in must not be undone by a healthy breaker's
	// ramp on the next accounting tick.
	draining map[core.NodeID]bool

	// fenced counts dispatches refused at delivery because their epoch stamp
	// belonged to a deposed owner.
	dispatched, delivered, reclaimed, fenced int
	balanceViolations                        int

	// Accounting-feedback health per node: each RPN's breaker trips on the
	// missed-cycle streak and ramps the node back through slow start after
	// recovery. The sim only ever feeds the Poll source — there is no
	// separate request path to probe — so recovery is always "first
	// delivered report re-enables, at reduced weight".
	breakers map[core.NodeID]*breaker.Breaker

	// Cumulative-report differ state per node.
	sendSeq  map[core.NodeID]int
	lastSeq  map[core.NodeID]int
	lastEp   map[core.NodeID]int
	lastSeen map[core.NodeID]core.UsageReport
	// The accounting maps rotate, as they do through the live dispatcher's
	// poller: a snapshot map the book is done with — superseded in lastSeen,
	// or arrived stale — goes to cumFree for a later send, and every delta is
	// diffed into the one deltaScratch.
	cumFree      []map[qos.SubscriberID]core.SubscriberUsage
	deltaScratch map[qos.SubscriberID]core.SubscriberUsage

	// bus, when non-nil, receives one event per breaker state transition —
	// the failure-detection half of a crash's causal story.
	bus *obs.Bus
}

func newChaosRun(nodes []*RPN, fronts []*frontEnd) *chaosRun {
	cs := &chaosRun{
		fronts:   fronts,
		crashed:  make(map[core.NodeID]bool, len(nodes)),
		inflight: make(map[core.NodeID]map[uint64]inflight, len(nodes)),
		draining: make(map[core.NodeID]bool, len(nodes)),
		breakers: make(map[core.NodeID]*breaker.Breaker, len(nodes)),
		sendSeq:  make(map[core.NodeID]int, len(nodes)),
		lastSeq:  make(map[core.NodeID]int, len(nodes)),
		lastEp:   make(map[core.NodeID]int, len(nodes)),
		lastSeen: make(map[core.NodeID]core.UsageReport, len(nodes)),

		deltaScratch: make(map[qos.SubscriberID]core.SubscriberUsage),
	}
	for _, r := range nodes {
		cs.inflight[r.id] = make(map[uint64]inflight)
		cs.lastSeq[r.id] = -1
		cs.breakers[r.id] = breaker.New(breaker.Config{
			Threshold: unhealthyAfterMissedAcct,
			SlowStart: slowStartAcctCycles,
		})
	}
	return cs
}

// addNode registers a mid-run node. It enters through a ramping breaker —
// weight 1/(slowStart+1), climbing one step per accounting tick — so a
// scale-out joins the pool exactly like a node recovering from a breaker
// trip rather than being handed a thundering herd.
func (cs *chaosRun) addNode(r *RPN) {
	cs.inflight[r.id] = make(map[uint64]inflight)
	cs.lastSeq[r.id] = -1
	cs.breakers[r.id] = breaker.NewRamping(breaker.Config{
		Threshold: unhealthyAfterMissedAcct,
		SlowStart: slowStartAcctCycles,
	})
}

// drain marks a node draining and zeroes its scheduler weight; in-flight
// accounting keeps settling normally.
func (cs *chaosRun) drain(node core.NodeID) {
	cs.draining[node] = true
	for _, fe := range cs.fronts {
		if fe.alive {
			// Known nodes cannot fail to drain.
			_, _ = fe.sched.DrainNode(node)
		}
	}
}

// track records a dispatch as in flight on its node.
func (cs *chaosRun) track(node core.NodeID, reqID uint64, sub qos.SubscriberID, fe *frontEnd) {
	cs.dispatched++
	cs.inflight[node][reqID] = inflight{sub: sub, front: fe}
}

// complete settles one delivered request.
func (cs *chaosRun) complete(node core.NodeID, reqID uint64) {
	delete(cs.inflight[node], reqID)
	cs.delivered++
}

// giveBack settles one dispatch that will never complete: its charge goes
// back to the scheduler that made it, so the node's capacity and the
// subscriber's in-flight estimate do not leak. A dispatcher that has itself
// crashed since took the charge with it.
func (cs *chaosRun) giveBack(node core.NodeID, reqID uint64) {
	e := cs.inflight[node][reqID]
	delete(cs.inflight[node], reqID)
	if e.front.alive {
		e.front.sched.ReleaseDispatch(e.sub, node, reqID)
	}
}

// reclaimOne settles one request lost to a node crash.
func (cs *chaosRun) reclaimOne(node core.NodeID, reqID uint64) {
	cs.reclaimed++
	cs.giveBack(node, reqID)
}

// lostOnWire reports whether a dispatch arriving at its node is lost to a
// crash, settling it if nothing has yet. A crash that fell while the
// dispatch was on the wire swept it out of the book with everything else in
// flight there: the sweep owns that reclaim and the arrival finds nothing to
// give back. A dispatch sent to a node already down — the schedulers keep
// choosing it until the missed-accounting streak trips — is reclaimed here.
func (cs *chaosRun) lostOnWire(node core.NodeID, reqID uint64) bool {
	if _, tracked := cs.inflight[node][reqID]; !tracked {
		return true
	}
	if cs.crashed[node] {
		cs.reclaimOne(node, reqID)
		return true
	}
	return false
}

// fenceOne settles one request refused at the delivery fence.
func (cs *chaosRun) fenceOne(node core.NodeID, reqID uint64) {
	cs.fenced++
	cs.giveBack(node, reqID)
}

// crash fail-stops a node: every request in flight there is reclaimed and
// the RPN restarts cold. The schedulers keep dispatching to the node until
// the missed-accounting streak disables it — an RDN has no crash oracle.
func (cs *chaosRun) crash(r *RPN) {
	cs.crashed[r.id] = true
	// Reclaim in request-ID order: scheduler release math clamps at zero,
	// so a deterministic order keeps chaos runs byte-replayable.
	ids := make([]uint64, 0, len(cs.inflight[r.id]))
	for reqID := range cs.inflight[r.id] {
		ids = append(ids, reqID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, reqID := range ids {
		cs.reclaimOne(r.id, reqID)
	}
	r.Crash()
}

// recover brings a crashed node back; it resumes answering accounting
// cycles, and the first delivered report re-enables it.
func (cs *chaosRun) recover(node core.NodeID) {
	cs.crashed[node] = false
}

// missAcct records one silent accounting cycle for a node; at the streak
// threshold the breaker opens and the node's scheduler weight drops to 0.
func (cs *chaosRun) missAcct(node core.NodeID, now time.Time) {
	cs.noteBreaker(node, cs.breakers[node].Failure(breaker.Poll, now))
}

// ackAcct records one delivered report. A tripped breaker closes — the poll
// is its own probe — and the node rejoins the schedulers at the bottom of
// the slow-start ramp rather than at full weight.
func (cs *chaosRun) ackAcct(node core.NodeID, now time.Time) {
	cs.noteBreaker(node, cs.breakers[node].Success(breaker.Poll, now))
}

// tickAcct advances breaker time one accounting cycle: the slow-start ramp
// climbs one step for closed breakers.
func (cs *chaosRun) tickAcct(node core.NodeID, now time.Time) {
	cs.noteBreaker(node, cs.breakers[node].Tick(now))
}

// noteBreaker follows one breaker input: a state transition lands on the
// event bus, and the schedulers' admission weight is brought back into
// lockstep with the breaker — the single place health changes what a
// scheduler may dispatch.
func (cs *chaosRun) noteBreaker(node core.NodeID, transitioned bool) {
	if transitioned {
		cs.bus.Publish(obs.Event{Kind: obs.KindBreaker, Node: int(node),
			Stage: cs.breakers[node].State().String(), Detail: breaker.Poll.String()})
	}
	w := cs.nodeWeight(node)
	for _, fe := range cs.fronts {
		if fe.alive {
			// Known nodes cannot fail to update.
			_ = fe.sched.SetNodeWeight(node, w)
		}
	}
}

// nodeWeight reports the node's current scheduler weight: the breaker's,
// pinned at 0 while the node drains.
func (cs *chaosRun) nodeWeight(node core.NodeID) float64 {
	if cs.draining[node] {
		return 0
	}
	return cs.breakers[node].Weight()
}

// snapshot takes a node's cumulative report for sending, into a map the
// book has finished with when there is one.
func (cs *chaosRun) snapshot(r *RPN) core.UsageReport {
	var into map[qos.SubscriberID]core.SubscriberUsage
	if k := len(cs.cumFree); k > 0 {
		into, cs.cumFree = cs.cumFree[k-1], cs.cumFree[:k-1]
	}
	return r.Accountant().CumulativeReportInto(into)
}

// deliverAcct folds one arriving accounting message into the delta the
// schedulers consume. Stale messages (an older send overtaken by a newer
// one inside a delay window) return ok=false and must be ignored. A message
// from a new incarnation is a counter reset: the fresh cumulative IS the
// delta, exactly as the live dispatcher's poller sees a restarted backend.
// The delta's map is the book's scratch: it is good until the next delivery.
func (cs *chaosRun) deliverAcct(node core.NodeID, msg acctMsg) (core.UsageReport, bool) {
	if msg.epoch == cs.lastEp[node] && msg.seq <= cs.lastSeq[node] {
		cs.cumFree = append(cs.cumFree, msg.cum.BySubscriber)
		return core.UsageReport{}, false
	}
	prev := cs.lastSeen[node]
	superseded := prev.BySubscriber
	if msg.epoch != cs.lastEp[node] {
		prev = core.UsageReport{} // restarted: counters began again at zero
	}
	cs.lastSeq[node] = msg.seq
	cs.lastEp[node] = msg.epoch
	cs.lastSeen[node] = msg.cum
	delta := core.DiffUsageReports(msg.cum, prev, cs.deltaScratch)
	if superseded != nil {
		cs.cumFree = append(cs.cumFree, superseded)
	}
	return delta, true
}

// inflightTotal counts requests still in flight across all nodes.
func (cs *chaosRun) inflightTotal() int {
	var n int
	for _, m := range cs.inflight {
		n += len(m)
	}
	return n
}
