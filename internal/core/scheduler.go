// Package core implements Gage's request-scheduling brain (§3.4–§3.5): the
// per-subscriber queues, the credit-based weighted-round-robin request
// scheduler with a reservation round and a reservation-proportional spare
// round, the per-request resource-usage predictor, and the weighted
// round-robin node scheduler. It is pure scheduling logic — both the
// discrete-event cluster simulator and the live TCP dispatcher drive the same
// Scheduler, one on a virtual clock and one on wall time.
//
// Credit accrues per scheduling cycle, at Tick; dispatch does not have to
// wait for one. A front end hands each arriving request to Submit, which
// dispatches it on the spot when its subscriber's reservation already covers
// it — empty queue, reservation-round gate passed, a node with room — and
// otherwise queues it for the next Tick, as Enqueue always does. Tick credits
// the backlogged queues, serves them on their reservations, and alone shares
// out what capacity the reservations leave spare.
//
// The hot path is allocation-free and O(active) per cycle: idle subscribers
// cost nothing (their credit settles lazily from a cycle counter), the spare
// round pops its next dispatch from a min-heap keyed on the SFQ start tag,
// and the node pick consumes a smooth weighted-round-robin table precompiled
// from the node weights.
//
// Scheduling is hierarchical: subscribers belong to groups (tenant tiers).
// The reservation round schedules active groups against each other by smooth
// weighted round-robin over aggregate reservations, and round-robins the
// backlogged members within each group, so per-cycle work is O(active groups
// + active members + dispatches) — independent of the registered population.
// Registered-but-idle subscribers are not even materialized: their full
// scheduling state is created lazily on first enqueue, so a directory of a
// million signed tenants costs one lightweight definition record each and
// nothing per cycle.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"gage/internal/flightrec"
	"gage/internal/qos"
)

// NodeID identifies a back-end request processing node (RPN).
type NodeID int

// Request is one classified web access waiting for dispatch. Payload carries
// the caller's request object (a simulator request, a live connection, ...)
// opaquely through the scheduler.
type Request struct {
	// ID is the caller-assigned unique request identifier.
	ID uint64
	// Subscriber is the charging entity the request was classified to.
	Subscriber qos.SubscriberID
	// Affinity, when non-zero, requests content-aware dispatch (§3.6): all
	// requests sharing an affinity value prefer the same node, so URL pages
	// in the same proximity hit one RPN's cache. The preference yields to
	// load: a full preferred node falls back to the round-robin pick.
	Affinity uint64
	// Payload is opaque caller context returned with the dispatch decision.
	Payload any
}

// Dispatch is one scheduling decision: send Req to Node. Predicted is the
// resource usage the scheduler charged against the subscriber's balance and
// the node's outstanding load at dispatch time.
type Dispatch struct {
	Req       Request
	Node      NodeID
	Predicted qos.Vector
}

// NodeConfig declares one RPN's capacity to the node scheduler.
type NodeConfig struct {
	// ID is the node's identity in dispatches and usage reports.
	ID NodeID
	// Capacity is the node's resource budget per second: how much CPU time,
	// disk-channel time and network bytes it can deliver each second.
	Capacity qos.Vector
}

// GateMode selects how the reservation round decides a queue has used up its
// entitlement.
type GateMode int

const (
	// GateSelfClocked (default) subtracts the predicted usage of in-flight
	// requests from the balance at dispatch time, so the gate is exact even
	// when accounting messages are infrequent. This is the library's
	// improved design.
	GateSelfClocked GateMode = iota
	// GateReported gates on the balance as known from accounting messages
	// alone — the dispatch itself does not debit the gate. QoS stability
	// then depends on the accounting-cycle length exactly as the paper's
	// Figure 3 measures: long cycles make service oscillate between zero
	// and about twice the reservation.
	GateReported
)

// Config tunes the scheduler.
type Config struct {
	// Cycle is the scheduling cycle; the paper uses 10 ms for responsiveness.
	Cycle time.Duration
	// CreditWindow caps accumulated balance at ±reservation×CreditWindow so
	// idle subscribers cannot hoard unbounded credit and overloaded ones
	// recover their guarantee within one window of load returning to normal.
	CreditWindow time.Duration
	// OutstandingWindow bounds each node's estimated outstanding load at
	// capacity×OutstandingWindow. It must cover a few scheduling cycles so
	// nodes never idle between ticks.
	OutstandingWindow time.Duration
	// PredictionAlpha is the weight of the newest sample in the per-request
	// usage estimate (exponentially weighted moving average).
	PredictionAlpha float64
	// Gate selects the reservation-round gating mode.
	Gate GateMode
	// DisableCapacityDrain turns off the optimistic between-report drain of
	// node outstanding load (the paper-faithful behaviour: node capacity
	// "reappears" only when accounting messages arrive, so dispatch turns
	// bursty at the accounting period — the instability Figure 3 measures).
	// The default drain model keeps dispatch smooth under slow feedback.
	DisableCapacityDrain bool
}

// Defaults mirroring the paper's prototype settings.
const (
	DefaultCycle             = 10 * time.Millisecond
	DefaultCreditWindow      = time.Second
	DefaultOutstandingWindow = 50 * time.Millisecond
	DefaultPredictionAlpha   = 0.3
)

func (c Config) withDefaults() Config {
	if c.Cycle <= 0 {
		c.Cycle = DefaultCycle
	}
	if c.CreditWindow <= 0 {
		c.CreditWindow = DefaultCreditWindow
	}
	if c.OutstandingWindow <= 0 {
		c.OutstandingWindow = DefaultOutstandingWindow
	}
	if c.PredictionAlpha <= 0 || c.PredictionAlpha > 1 {
		c.PredictionAlpha = DefaultPredictionAlpha
	}
	return c
}

// Scheduler errors.
var (
	// ErrQueueFull reports a drop: the subscriber's queue is at its limit.
	ErrQueueFull = errors.New("core: subscriber queue full")
	// ErrUnknownSubscriber reports a request for an unregistered subscriber.
	ErrUnknownSubscriber = errors.New("core: unknown subscriber")
	// ErrUnknownNode reports a usage message from an unregistered node.
	ErrUnknownNode = errors.New("core: unknown node")
)

// pendingDispatch is one in-flight request's charged prediction. The request
// ID keys the lifecycle API: an abandoned dispatch is released by ID, not by
// completion count.
type pendingDispatch struct {
	reqID     uint64
	predicted qos.Vector
	spare     bool
}

// pendQ is a head-indexed FIFO of in-flight predictions for one (subscriber,
// node) pair. Accounting releases pop from the head without reslicing the
// backing array away, so steady-state settle cycles allocate nothing.
type pendQ struct {
	items []pendingDispatch
	head  int
}

func (p *pendQ) size() int                 { return len(p.items) - p.head }
func (p *pendQ) at(i int) *pendingDispatch { return &p.items[p.head+i] }
func (p *pendQ) push(pd pendingDispatch)   { p.items = append(p.items, pd) }

// release drops the first k entries (completed work, matched by count).
func (p *pendQ) release(k int) {
	for i := p.head; i < p.head+k; i++ {
		p.items[i] = pendingDispatch{}
	}
	p.head += k
	if p.head > 64 && p.head*2 >= len(p.items) {
		p.items = append(p.items[:0], p.items[p.head:]...)
		p.head = 0
	}
}

// remove deletes entry i (relative to head), preserving dispatch order and
// zeroing the vacated tail slot. Order must be preserved — accounting
// messages release a completion-count *prefix* of this queue, so a
// swap-with-tail removal would hand later count-based releases the wrong
// predictions. The old reslicing shift also left a live duplicate of the
// tail entry beyond the slice length; the explicit zero fixes that.
func (p *pendQ) remove(i int) {
	last := len(p.items) - 1
	copy(p.items[p.head+i:], p.items[p.head+i+1:])
	p.items[last] = pendingDispatch{}
	p.items = p.items[:last]
}

// subDef is one subscriber's lightweight registration record: reservation,
// queue bound, group membership, and the cycle it registered on. The full
// scheduling state (queueState) is materialized lazily on first enqueue, with
// lastCredit set to regCycle — because crediting k cycles at once and
// clamping equals k iterations of credit-then-clamp, the lazy subscriber's
// balance is bit-identical to one that carried state from registration. A
// registered-but-never-active subscriber therefore costs one map entry and
// nothing per cycle.
type subDef struct {
	res      qos.GRPS
	limit    int
	grp      *groupState
	regCycle uint64
}

// groupState is one subscriber group (tenant tier): the unit the reservation
// round's top level schedules. Active groups compete by smooth weighted
// round-robin over aggregate reservation; backlogged members within a group
// are visited round-robin off the group's active list. A group with no
// backlogged member parks entirely off the hot path.
type groupState struct {
	name string

	// aggRes is the sum of all registered members' reservations — the
	// group's scheduling weight. Maintained incrementally on
	// register/remove/migrate; members counts registrations, and a group
	// whose last member leaves is deleted.
	aggRes  qos.GRPS
	members int

	// active lists the group's backlogged queues, sorted by subscriber ID;
	// astart rotates the member round-robin's first visit exactly as the
	// pre-hierarchy scheduler rotated its single flat list. Membership
	// changes keep astart pointing at the same queue.
	active []*queueState
	astart int

	// wcur is the group's smooth-WRR credit: each tick every active group
	// gains its weight and the tick's first-visited group pays back the
	// total, so first claim on scarce node room rotates in proportion to
	// aggregate reservations. Reset on activation so an idle spell cannot
	// bank priority; bounded by ±total active weight thereafter.
	wcur float64

	// inActive marks membership in Scheduler.activeGroups.
	inActive bool
}

// weight is the group's smooth-WRR weight: its aggregate reservation, with
// non-positive aggregates contributing nothing.
func (g *groupState) weight() float64 {
	if g.aggRes <= 0 {
		return 0
	}
	return float64(g.aggRes)
}

// queueState is the per-subscriber scheduling state.
type queueState struct {
	id    qos.SubscriberID
	res   qos.GRPS
	limit int

	// grp is the subscriber's group; while backlogged the queue rotates in
	// grp.active.
	grp *groupState

	fifo []Request
	head int

	// balance is the reserved-resource account: credited reservation×cycle
	// per tick, debited with actual usage from accounting messages, and
	// pre-compensated for spare-round dispatches so it tracks only
	// reservation-funded consumption. Clamped to ±res×CreditWindow.
	//
	// Crediting is lazy: lastCredit records the cycle the balance was last
	// settled to, and settleCredit folds in the missed cycles in one step.
	// Because the per-cycle credit is non-negative and the clamp band is
	// fixed, crediting k cycles at once and clamping equals k iterations of
	// credit-then-clamp, so idle subscribers cost nothing per tick.
	balance    qos.Vector
	lastCredit uint64

	// creditPerCycle and clampLim cache res.PerCycle(Cycle) and
	// res.PerCycle(CreditWindow) so settling does no float math per tick.
	creditPerCycle qos.Vector
	clampLim       qos.Vector

	// estimated[i] is the predicted usage of this subscriber's in-flight
	// requests on the node at dense index i — the paper's "estimated
	// resource usage array". estTotal caches the sum across nodes so the
	// self-clocked gate does not re-sum per dispatch decision. Both the
	// estimated slice and the pending queues are allocated on first
	// dispatch, so idle subscribers carry no per-node state.
	estimated []qos.Vector
	estTotal  qos.Vector

	// pending[i] holds the per-dispatch predictions backing estimated[i],
	// in dispatch order. Accounting messages release exactly these values
	// (matched by completion count), so prediction error can never
	// accumulate as phantom outstanding load. Spare-funded dispatches are
	// flagged: their usage is compensated back into the balance at release
	// time, atomically with the actual-usage debit.
	pending []pendQ

	// predicted is the EWMA per-request usage estimate.
	predicted qos.Vector

	// vstart is the queue's start-time-fair-queueing tag for the spare
	// round, in virtual time (generic units divided by reservation weight).
	vstart float64

	// inActive marks membership in the scheduler's active list (backlogged
	// queues); empty queues leave the list at the end of the tick that
	// drained them.
	inActive bool

	dropped uint64

	// dispatched counts this subscriber's dispatch decisions since creation
	// (monitoring; the per-scheduler total lives on Scheduler.dispatched).
	dispatched uint64

	// Per-cycle flight-recorder accumulators, maintained only while a
	// recorder is attached and reset as each cycle record is committed:
	// dispatch counts by funding round, the effective credit granted, and
	// the usage/completions reported, each summed over everything since the
	// previous record — the tick itself and whatever Submit, usage reports
	// and balance reads did between ticks — so the records add up to what
	// the balance saw. recTouched marks membership in the cycle's to-record
	// list.
	recTouched   bool
	cycReserved  int
	cycSpare     int
	cycCompleted int
	cycUsage     qos.Vector
	cycCredited  qos.Vector
}

func (q *queueState) qlen() int { return len(q.fifo) - q.head }

func (q *queueState) push(r Request) {
	q.fifo = append(q.fifo, r)
}

func (q *queueState) pop() Request {
	r := q.fifo[q.head]
	q.fifo[q.head] = Request{} // release payload for GC
	q.head++
	if q.head > 64 && q.head*2 >= len(q.fifo) {
		q.fifo = append(q.fifo[:0], q.fifo[q.head:]...)
		q.head = 0
	}
	return r
}

// nodeState is the per-RPN scheduling state.
type nodeState struct {
	id       NodeID
	idx      int        // dense index into Scheduler.nodeList
	capacity qos.Vector // per second
	bound    qos.Vector // capacity × OutstandingWindow
	perCycle qos.Vector // capacity × Cycle, the optimistic per-tick drain

	// outstanding is the predicted usage of all pending requests dispatched
	// to this node and not yet reported complete.
	outstanding qos.Vector

	// weight scales the node's admission bound: 1 is full capacity, 0
	// receives no dispatches (health management), and fractions in between
	// implement slow-start recovery — a node rejoining after an outage is
	// offered a growing slice of its bound instead of a thundering herd.
	// In-flight accounting settles normally at any weight. The weight also
	// sets the node's share of the smooth-WRR pick table.
	weight float64

	// weightedBound caches bound × weight so admission checks do no float
	// math per dispatch decision.
	weightedBound qos.Vector

	// drained is the optimistic estimate of how much of outstanding the
	// node has already served but not yet reported: it grows at the node's
	// known capacity every scheduling cycle and is reconciled downward when
	// accounting messages release completed work. Without it, node capacity
	// would only "reappear" in accounting-cycle-sized batches, making
	// dispatch bursty at exactly the feedback period. (The paper's RDN
	// similarly tracks each RPN's capacity between messages, §3.5.)
	drained qos.Vector
}

// effective returns the node's believed backlog: outstanding minus the
// optimistic drain.
func (nd *nodeState) effective() qos.Vector {
	return nd.outstanding.Sub(nd.drained).ClampNonNegative()
}

// hasRoom reports whether the node may accept one more request of the
// predicted size under its weight-scaled admission bound.
func (nd *nodeState) hasRoom(predicted qos.Vector) bool {
	if nd.weight <= 0 {
		return false
	}
	return nd.weightedBound.Dominates(nd.effective().Add(predicted))
}

// Scheduler is the RDN request+node scheduler. It is safe for concurrent
// use; the live dispatcher calls Submit from connection goroutines while a
// ticker goroutine calls Tick.
type Scheduler struct {
	mu sync.Mutex

	cfg Config

	// defs records every registered subscriber; subs holds the materialized
	// scheduling state of those that have ever been enqueued. The split is
	// what lets a directory of a million signed tenants cost one small
	// record each: queues, balances, and per-node arrays exist only for
	// subscribers that have carried traffic.
	defs map[qos.SubscriberID]*subDef
	subs map[qos.SubscriberID]*queueState

	// groups indexes the subscriber groups by name. activeGroups lists the
	// groups with backlogged members, sorted by name; grpOrder is the
	// per-tick visit-order scratch (sorted by smooth-WRR credit), retained
	// across cycles so ordering allocates nothing.
	groups       map[string]*groupState
	activeGroups []*groupState
	grpOrder     []*groupState

	// cycleNum counts Ticks; queueState.lastCredit settles against it.
	cycleNum uint64

	nodes    map[NodeID]*nodeState
	nodeList []*nodeState // sorted by NodeID; nodeState.idx indexes it

	// wrrTable is the precompiled smooth weighted-round-robin pick sequence
	// over node weights (nginx-style), recompiled only when a weight or the
	// membership changes; wrrPos is the cursor. An empty table means no
	// node accepts work.
	wrrTable []int32
	wrrPos   int
	wrrCur   []int // compile scratch
	wrrWts   []int // compile scratch

	// vtime is the spare round's global virtual time: the start tag of the
	// most recent spare dispatch. Queues re-activating after idleness join
	// at vtime so they cannot bank spare credit.
	vtime float64

	// spareHeap is the spare round's min-heap scratch, keyed (vstart, id);
	// dispatchBuf is the reused Tick result slice. Both retain capacity
	// across cycles so the hot path allocates nothing in steady state.
	spareHeap   []*queueState
	dispatchBuf []Dispatch

	// recTouched lists the queues with activity to record this cycle
	// (visited by the reservation round, submitted to, or named in a usage
	// report); maintained only while a recorder is attached.
	recTouched []*queueState

	dispatched uint64

	// rec, when non-nil, receives one CycleRecord per tick. The hot path
	// pays a single nil check when no recorder is attached.
	rec *flightrec.Recorder
}

// New builds a scheduler for the given subscribers and nodes. An empty
// directory is allowed: a recovered front end starts with no partition and
// receives its subscribers through ImportSubscriberState when the lease
// table hands groups back. An empty node pool is allowed too — a scheduler
// born before its cluster dispatches nothing (the smooth-WRR table is empty)
// until AddNode grows the pool; a scheduler started empty and populated
// entirely through AddSubscriber/AddNode produces cycle records identical to
// one seeded at construction.
func New(dir *qos.Directory, nodes []NodeConfig, cfg Config) (*Scheduler, error) {
	if dir == nil {
		return nil, errors.New("core: subscriber directory required")
	}
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:    cfg,
		defs:   make(map[qos.SubscriberID]*subDef, dir.Len()),
		subs:   make(map[qos.SubscriberID]*queueState),
		groups: make(map[string]*groupState),
		nodes:  make(map[NodeID]*nodeState, len(nodes)),
	}
	for _, id := range dir.IDs() {
		sub, err := dir.Subscriber(id)
		if err != nil {
			return nil, err
		}
		s.register(sub)
	}
	for _, nc := range nodes {
		if _, dup := s.nodes[nc.ID]; dup {
			return nil, fmt.Errorf("core: duplicate node %d", nc.ID)
		}
		if nc.Capacity.AnyNegative() || nc.Capacity.IsZero() {
			return nil, fmt.Errorf("core: node %d: capacity must be positive, got %v", nc.ID, nc.Capacity)
		}
		nd := &nodeState{
			id:       nc.ID,
			capacity: nc.Capacity,
			bound:    nc.Capacity.Scale(cfg.OutstandingWindow.Seconds()),
			perCycle: nc.Capacity.Scale(cfg.Cycle.Seconds()),
			weight:   1,
		}
		nd.weightedBound = nd.bound
		s.nodes[nc.ID] = nd
		s.nodeList = append(s.nodeList, nd)
	}
	slices.SortFunc(s.nodeList, func(a, b *nodeState) int { return cmp.Compare(a.id, b.id) })
	for i, nd := range s.nodeList {
		nd.idx = i
	}
	s.compileWRR()
	return s, nil
}

// register records a subscriber definition, creating its group on demand and
// folding its reservation into the group's aggregate. Callers hold s.mu (or
// run before the scheduler is shared).
func (s *Scheduler) register(sub qos.Subscriber) {
	g := s.groups[sub.Group]
	if g == nil {
		g = &groupState{name: sub.Group}
		s.groups[sub.Group] = g
	}
	g.aggRes += sub.Reservation
	g.members++
	s.defs[sub.ID] = &subDef{
		res:      sub.Reservation,
		limit:    sub.EffectiveQueueLimit(),
		grp:      g,
		regCycle: s.cycleNum,
	}
}

// materialize builds the full scheduling state for a registered subscriber on
// its first enqueue. lastCredit starts at the registration cycle, so the
// first settlement folds in the whole idle span — the balance is identical to
// what eager per-tick crediting would have produced. Callers hold s.mu.
func (s *Scheduler) materialize(id qos.SubscriberID, def *subDef) *queueState {
	q := &queueState{
		id:             id,
		res:            def.res,
		limit:          def.limit,
		grp:            def.grp,
		creditPerCycle: def.res.PerCycle(s.cfg.Cycle),
		clampLim:       def.res.PerCycle(s.cfg.CreditWindow),
		predicted:      qos.GenericCost(), // prior until feedback arrives
		lastCredit:     def.regCycle,
		vstart:         s.vtime,
	}
	s.subs[id] = q
	return q
}

// Cycle returns the configured scheduling cycle.
func (s *Scheduler) Cycle() time.Duration { return s.cfg.Cycle }

// CreditWindow returns the span of credit a balance may bank or owe.
func (s *Scheduler) CreditWindow() time.Duration { return s.cfg.CreditWindow }

// settleCredit folds the cycles elapsed since the queue's last settlement
// into its balance, clamped to the credit band. It is the one place credit is
// granted — by the reservation round, by Submit, by a usage report or a
// balance read — so with a recorder attached the grant (the balance delta
// after clamping) is added to the cycle's accumulator here, whoever settled
// it and whether or not a tick was running. Callers hold s.mu.
func (s *Scheduler) settleCredit(q *queueState) {
	k := s.cycleNum - q.lastCredit
	if k == 0 {
		return
	}
	q.lastCredit = s.cycleNum
	credit := q.creditPerCycle
	if k > 1 {
		credit = credit.Scale(float64(k))
	}
	before := q.balance
	q.balance = s.clampBalance(q, before.Add(credit))
	if s.rec != nil {
		q.cycCredited = q.cycCredited.Add(q.balance.Sub(before))
	}
}

// inCredit is the reservation round's gate: the settled balance — less, when
// self-clocked, the predicted usage of the requests already in flight — is
// not negative. A queue that passes may be sent one more request on its
// reservation; one that fails waits for credit, which arrives only at ticks.
// Callers hold s.mu and have settled q.
func (s *Scheduler) inCredit(q *queueState) bool {
	effective := q.balance
	if s.cfg.Gate == GateSelfClocked {
		effective = effective.Sub(q.estTotal)
	}
	return !effective.AnyNegative()
}

// activate inserts q into its group's active list at its sorted position,
// keeping the group's rotation pointer on the queue it pointed at, and wakes
// the group if this is its first backlogged member. Callers hold s.mu.
func (s *Scheduler) activate(q *queueState) {
	if q.inActive {
		return
	}
	q.inActive = true
	g := q.grp
	i, _ := slices.BinarySearchFunc(g.active, q, func(a, b *queueState) int {
		return cmp.Compare(a.id, b.id)
	})
	g.active = append(g.active, nil)
	copy(g.active[i+1:], g.active[i:])
	g.active[i] = q
	if i < g.astart {
		g.astart++
	}
	s.activateGroup(g)
}

// deactivate removes q from its group's active list, adjusting the group's
// rotation pointer relative to the removed index so no member's turn is
// skipped, and parks the group if its list emptied. Callers hold s.mu.
func (s *Scheduler) deactivate(q *queueState) {
	if !q.inActive {
		return
	}
	q.inActive = false
	g := q.grp
	i, ok := slices.BinarySearchFunc(g.active, q, func(a, b *queueState) int {
		return cmp.Compare(a.id, b.id)
	})
	if !ok {
		return
	}
	copy(g.active[i:], g.active[i+1:])
	g.active[len(g.active)-1] = nil
	g.active = g.active[:len(g.active)-1]
	if i < g.astart {
		g.astart--
	}
	if g.astart >= len(g.active) {
		g.astart = 0
	}
	if len(g.active) == 0 {
		s.deactivateGroup(g)
	}
}

// activateGroup adds g to the active-group list (sorted by name) when its
// first member backlogs. The smooth-WRR credit resets so a group returning
// from idleness joins the weighted rotation at parity instead of replaying
// banked priority — the group-level analogue of the SFQ vstart catch-up.
// Callers hold s.mu.
func (s *Scheduler) activateGroup(g *groupState) {
	if g.inActive {
		return
	}
	g.inActive = true
	g.wcur = 0
	i, _ := slices.BinarySearchFunc(s.activeGroups, g, func(a, b *groupState) int {
		return cmp.Compare(a.name, b.name)
	})
	s.activeGroups = append(s.activeGroups, nil)
	copy(s.activeGroups[i+1:], s.activeGroups[i:])
	s.activeGroups[i] = g
}

// deactivateGroup removes g from the active-group list. Callers hold s.mu.
func (s *Scheduler) deactivateGroup(g *groupState) {
	if !g.inActive {
		return
	}
	g.inActive = false
	i, ok := slices.BinarySearchFunc(s.activeGroups, g, func(a, b *groupState) int {
		return cmp.Compare(a.name, b.name)
	})
	if !ok {
		return
	}
	copy(s.activeGroups[i:], s.activeGroups[i+1:])
	s.activeGroups[len(s.activeGroups)-1] = nil
	s.activeGroups = s.activeGroups[:len(s.activeGroups)-1]
}

// touch adds q to the cycle's to-record list. Callers hold s.mu and have
// checked s.rec != nil.
func (s *Scheduler) touch(q *queueState) {
	if q.recTouched {
		return
	}
	q.recTouched = true
	s.recTouched = append(s.recTouched, q)
}

// Enqueue classifies nothing — the caller already did — it appends the
// request to its subscriber's FIFO queue, where it waits for a Tick to
// dispatch it. It returns ErrQueueFull on a drop and ErrUnknownSubscriber for
// unregistered subscribers. Callers that must keep the order in which they
// queue (a partition hand-off re-queuing another scheduler's backlog) or that
// measure the tick path use Enqueue; a front end admitting a client's request
// uses Submit.
func (s *Scheduler) Enqueue(req Request) error {
	_, _, err := s.submit(req, false)
	return err
}

// Submit is Enqueue for an arriving request: when the subscriber's
// reservation already covers it, it is dispatched there and then instead of
// at the next Tick. That is the case when its queue is empty (nothing is
// overtaken), its credit — settled to the current cycle, with none for the
// fraction of a cycle since — passes the reservation round's own gate
// (inCredit), and a node has room. The decision is the one the next Tick's
// reservation round would have made, one cycle's credit earlier: same node
// pick, same reservation-funded charge, same in-flight entry, settled by
// ReportUsage, ReleaseDispatch, Redispatch or RemoveSubscriber like any
// other. Only the wait for the cycle boundary, an artefact of a timer-driven
// scheduler and no part of the guarantee, is gone.
//
// The gate is the round's and not "the balance covers the predicted cost": a
// stricter gate here would queue requests the next Tick dispatches anyway,
// adding the wait back without withholding anything. Submit never hands out
// spare capacity: a subscriber at or over its reservation is paced by credit
// arriving at ticks, and what the reservations leave over is shared among
// the backlogged queues in proportion to reservation by the Tick's spare
// round alone, which needs all of them in view.
//
// It reports the dispatch and true, or false when the request was queued for
// the Tick exactly as Enqueue queues it; the errors are Enqueue's.
func (s *Scheduler) Submit(req Request) (Dispatch, bool, error) {
	return s.submit(req, true)
}

// submit is the body of Enqueue and Submit; onArrival permits the immediate
// dispatch.
func (s *Scheduler) submit(req Request, onArrival bool) (Dispatch, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.subs[req.Subscriber]
	if !ok {
		def, registered := s.defs[req.Subscriber]
		if !registered {
			return Dispatch{}, false, fmt.Errorf("%w: %q", ErrUnknownSubscriber, req.Subscriber)
		}
		q = s.materialize(req.Subscriber, def)
	}
	if q.qlen() >= q.limit {
		q.dropped++
		// The sentinel itself: a flood refuses once per request, and every
		// caller counts the drop or answers 503 — none prints a message.
		return Dispatch{}, false, ErrQueueFull
	}
	wasEmpty := q.qlen() == 0
	q.push(req)
	if !wasEmpty {
		return Dispatch{}, false, nil
	}
	if onArrival {
		s.settleCredit(q)
		if s.rec != nil {
			s.touch(q)
		}
		if s.inCredit(q) {
			if d, ok := s.dispatchOne(q, false /* reservation-funded */); ok {
				return d, true, nil
			}
		}
	}
	if q.vstart < s.vtime {
		// SFQ activation: a queue returning from idleness joins the spare
		// round at the current virtual time instead of replaying the past.
		q.vstart = s.vtime
	}
	s.activate(q)
	return Dispatch{}, false, nil
}

// Tick runs one scheduling cycle and returns the dispatch decisions in
// order. The caller delivers each dispatch to its node before the next Tick:
// the returned slice is reused by the following call.
func (s *Scheduler) Tick() []Dispatch {
	s.mu.Lock()
	defer s.mu.Unlock()

	s.cycleNum++

	// Reuse the dispatch buffer; clear the previous cycle's entries first so
	// stale payload references do not outlive their requests.
	for i := range s.dispatchBuf {
		s.dispatchBuf[i] = Dispatch{}
	}
	out := s.dispatchBuf[:0]

	// Advance each node's optimistic drain by one cycle of its capacity:
	// between accounting messages the RDN assumes a busy node keeps serving
	// at its known rate.
	if !s.cfg.DisableCapacityDrain {
		for _, nd := range s.nodeList {
			nd.drained = nd.drained.Add(nd.perCycle).Min(nd.outstanding)
		}
	}

	// Round 1 — reservation round, two levels. Active groups are ordered by
	// smooth weighted round-robin over aggregate reservations: each tick
	// every active group gains its weight, groups are visited in descending
	// credit order (name tie-break keeps it deterministic), and the first
	// visited group pays back the total — so first claim on scarce node
	// room rotates in proportion to reservations. Within a group, the
	// backlogged members are visited cyclically (rotating start for
	// long-run fairness): settle each queue's credit, dispatch while the
	// effective balance stays non-negative. Idle queues and idle groups are
	// not visited; credit settles lazily when observed. With a single group
	// this reduces exactly to the flat rotating scan it replaced.
	if len(s.activeGroups) > 0 {
		order := append(s.grpOrder[:0], s.activeGroups...)
		var totalW float64
		for _, g := range order {
			w := g.weight()
			g.wcur += w
			totalW += w
		}
		slices.SortFunc(order, func(a, b *groupState) int {
			if a.wcur != b.wcur {
				if a.wcur > b.wcur {
					return -1
				}
				return 1
			}
			return cmp.Compare(a.name, b.name)
		})
		if totalW > 0 {
			order[0].wcur -= totalW
		}
		for _, g := range order {
			m := len(g.active)
			for i := 0; i < m; i++ {
				q := g.active[(g.astart+i)%m]
				s.settleCredit(q)
				if s.rec != nil {
					s.touch(q)
				}
				for q.qlen() > 0 && s.inCredit(q) {
					d, ok := s.dispatchOne(q, false /* reservation-funded */)
					if !ok {
						break // no node has room; leave queued
					}
					out = append(out, d)
				}
			}
			if m > 0 {
				g.astart = (g.astart + 1) % m
			}
		}
		for i := range order {
			order[i] = nil
		}
		s.grpOrder = order[:0]
	}

	// Round 2 — spare round. Remaining node capacity is shared among still
	// backlogged queues in proportion to their reservations ("higher
	// reservation gets larger share of spare", §4.1) using start-time fair
	// queueing: each backlogged queue carries a virtual start tag advanced
	// by cost/weight per dispatch, and a min-heap keyed (vstart, id) yields
	// the smallest tag in O(log active) instead of a full rescan. Within a
	// tick node load only grows (the drain advances once, up front), so a
	// queue no node can take is discarded for the rest of the cycle — the
	// heap shrinks monotonically and the sweep terminates. The scheme is
	// work-conserving: an otherwise idle cluster serves any backlog
	// regardless of reservations. Spare dispatches pre-compensate the
	// balance so the later actual-usage debit does not consume reserved
	// credit.
	// The heap is global across groups: spare capacity is shared by
	// individual reservation weight, so the group layer gates only the
	// reservation round. (vstart, id) is a total order, so building from
	// group-ordered iteration yields the same pop sequence a flat list did.
	h := s.spareHeap[:0]
	for _, g := range s.activeGroups {
		for _, q := range g.active {
			if q.qlen() > 0 {
				h = append(h, q)
			}
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		spareSiftDown(h, i)
	}
	for len(h) > 0 {
		q := h[0]
		d, ok := s.dispatchOne(q, true /* spare-funded */)
		if !ok {
			// No node can take this queue's predicted size for the rest of
			// the tick; drop it from the heap.
			h = sparePop(h)
			continue
		}
		s.vtime = q.vstart
		need := q.predicted.GenericUnits()
		if need <= 0 {
			need = 1e-9
		}
		weight := float64(q.res)
		if weight <= 0 {
			// Zero-reservation subscribers receive spare only at a token
			// weight, after everyone with a real reservation.
			weight = 1e-3
		}
		q.vstart += need / weight
		out = append(out, d)
		if q.qlen() == 0 {
			h = sparePop(h)
		} else {
			spareSiftDown(h, 0)
		}
	}
	s.spareHeap = h[:0]

	// Drop drained queues from each group's active list (one
	// order-preserving compaction pass per group, keeping the rotation
	// pointer on its queue), then park the groups whose lists emptied with
	// a compaction of the active-group list itself.
	if len(s.activeGroups) > 0 {
		gw := 0
		for _, g := range s.activeGroups {
			w := 0
			start := g.astart
			for i, q := range g.active {
				if q.qlen() > 0 {
					g.active[w] = q
					w++
					continue
				}
				q.inActive = false
				if i < g.astart {
					start--
				}
			}
			for i := w; i < len(g.active); i++ {
				g.active[i] = nil
			}
			g.active = g.active[:w]
			g.astart = start
			if g.astart >= w || g.astart < 0 {
				g.astart = 0
			}
			if w > 0 {
				s.activeGroups[gw] = g
				gw++
			} else {
				g.inActive = false
			}
		}
		for i := gw; i < len(s.activeGroups); i++ {
			s.activeGroups[i] = nil
		}
		s.activeGroups = s.activeGroups[:gw]
	}

	if s.rec != nil {
		s.recordCycle()
	}
	s.dispatchBuf = out
	return out
}

// spareLess orders the spare heap by (vstart, id); the ID tie-break keeps
// dispatch sequences deterministic.
func spareLess(a, b *queueState) bool {
	return a.vstart < b.vstart || (a.vstart == b.vstart && a.id < b.id)
}

func spareSiftDown(h []*queueState, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && spareLess(h[r], h[l]) {
			m = r
		}
		if !spareLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// sparePop removes the heap's root, releasing the vacated tail slot.
func sparePop(h []*queueState) []*queueState {
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	if n > 1 {
		spareSiftDown(h, 0)
	}
	return h
}

// recordCycle commits one flight-recorder record of the cycle that just ran
// and resets the per-cycle accumulators. Only subscribers with activity
// since the last record — visited by the reservation round, submitted to, or
// named in a usage report — appear in it; idle subscribers are omitted so
// recording stays O(active). Callers hold s.mu and have checked s.rec != nil. Steady state
// allocates nothing: the record's slices retain their capacity across
// cycles.
func (s *Scheduler) recordCycle() {
	slices.SortFunc(s.recTouched, func(a, b *queueState) int { return cmp.Compare(a.id, b.id) })
	cr := s.rec.Begin()
	for _, q := range s.recTouched {
		cr.Subs = append(cr.Subs, flightrec.SubRecord{
			ID:          q.id,
			Reservation: q.res,
			Balance:     q.balance,
			Predicted:   q.predicted,
			Credited:    q.cycCredited,
			Usage:       q.cycUsage,
			QueueLen:    q.qlen(),
			Reserved:    q.cycReserved,
			Spare:       q.cycSpare,
			Completed:   q.cycCompleted,
			Dropped:     q.dropped,
		})
		q.recTouched = false
		q.cycReserved, q.cycSpare, q.cycCompleted = 0, 0, 0
		q.cycUsage, q.cycCredited = qos.Vector{}, qos.Vector{}
	}
	for _, nd := range s.nodeList {
		cr.Nodes = append(cr.Nodes, flightrec.NodeRecord{
			ID:          int(nd.id),
			Outstanding: nd.outstanding,
			Drained:     nd.drained,
			Weight:      nd.weight,
		})
	}
	s.rec.Commit()
	for i := range s.recTouched {
		s.recTouched[i] = nil
	}
	s.recTouched = s.recTouched[:0]
}

// SetRecorder attaches (or, with nil, detaches) a flight recorder. Each Tick
// then commits one CycleRecord; per-cycle accumulators start fresh from the
// next cycle.
func (s *Scheduler) SetRecorder(rec *flightrec.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec = rec
	for _, q := range s.subs {
		q.recTouched = false
		q.cycReserved, q.cycSpare, q.cycCompleted = 0, 0, 0
		q.cycUsage, q.cycCredited = qos.Vector{}, qos.Vector{}
	}
	for i := range s.recTouched {
		s.recTouched[i] = nil
	}
	s.recTouched = s.recTouched[:0]
}

// Recorder returns the attached flight recorder, or nil.
func (s *Scheduler) Recorder() *flightrec.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// ensureNodeSlots sizes the queue's per-node arrays on first dispatch.
func (s *Scheduler) ensureNodeSlots(q *queueState) {
	if q.estimated == nil {
		q.estimated = make([]qos.Vector, len(s.nodeList))
		q.pending = make([]pendQ, len(s.nodeList))
	}
}

// dispatchOne pops the head request of q and assigns it to the next node in
// the weighted-round-robin order with room. It updates the in-flight
// estimates. It reports false — without popping — when no node can take the
// request. Spare-funded dispatches are flagged so their usage is refunded to
// the balance when the accounting message releases them.
func (s *Scheduler) dispatchOne(q *queueState, spare bool) (Dispatch, bool) {
	affinity := q.fifo[q.head].Affinity
	node := s.pickNodeAffine(q.predicted, affinity)
	if node == nil {
		return Dispatch{}, false
	}
	req := q.pop()
	node.outstanding = node.outstanding.Add(q.predicted)
	s.ensureNodeSlots(q)
	q.estimated[node.idx] = q.estimated[node.idx].Add(q.predicted)
	q.estTotal = q.estTotal.Add(q.predicted)
	q.pending[node.idx].push(pendingDispatch{reqID: req.ID, predicted: q.predicted, spare: spare})
	s.dispatched++
	q.dispatched++
	if s.rec != nil {
		if spare {
			q.cycSpare++
		} else {
			q.cycReserved++
		}
	}
	return Dispatch{Req: req, Node: node.id, Predicted: q.predicted}, true
}

// pickNodeAffine prefers the affinity-designated node when it has room,
// falling back to the round-robin pick — content-aware request distribution
// (§3.6) that trades perfect balance for cache locality.
func (s *Scheduler) pickNodeAffine(predicted qos.Vector, affinity uint64) *nodeState {
	if affinity != 0 && len(s.nodeList) > 0 {
		nd := s.nodeList[affinity%uint64(len(s.nodeList))]
		if nd.hasRoom(predicted) {
			return nd
		}
	}
	return s.pickNodeExcept(predicted, nil)
}

// pickNode returns the next node in the precompiled smooth-WRR order that
// has room for the predicted usage, or nil. The table embodies the weighted
// interleaving, so the pick is O(1) plus skipped-full entries (bounded by
// the table length, a function of node count — never of subscriber count).
func (s *Scheduler) pickNode(predicted qos.Vector) *nodeState {
	return s.pickNodeExcept(predicted, nil)
}

// pickNodeExcept is pickNode with one node ruled out — the redispatch path
// must never hand a request back to the node that just failed it.
func (s *Scheduler) pickNodeExcept(predicted qos.Vector, except *nodeState) *nodeState {
	n := len(s.wrrTable)
	for i := 0; i < n; i++ {
		pos := s.wrrPos + i
		if pos >= n {
			pos -= n
		}
		nd := s.nodeList[s.wrrTable[pos]]
		if nd == except || !nd.hasRoom(predicted) {
			continue
		}
		s.wrrPos = pos + 1
		if s.wrrPos >= n {
			s.wrrPos = 0
		}
		return nd
	}
	return nil
}

// compileWRR rebuilds the smooth weighted-round-robin pick table from the
// node weights. It runs only on construction and weight/membership changes,
// never on the dispatch path. Weights are scaled to 1/64 granularity and
// reduced by their GCD, so equal-weight clusters compile to one entry per
// node (plain round-robin) and the table stays small.
func (s *Scheduler) compileWRR() {
	const granularity = 64
	wts := s.wrrWts[:0]
	total := 0
	for _, nd := range s.nodeList {
		w := 0
		if nd.weight > 0 {
			w = int(nd.weight*granularity + 0.5)
			if w == 0 {
				w = 1
			}
		}
		wts = append(wts, w)
		total += w
	}
	s.wrrWts = wts
	if total == 0 {
		s.wrrTable = s.wrrTable[:0]
		s.wrrPos = 0
		return
	}
	g := 0
	for _, w := range wts {
		g = gcd(g, w)
	}
	if g > 1 {
		total = 0
		for i := range wts {
			wts[i] /= g
			total += wts[i]
		}
	}
	cur := s.wrrCur
	if cap(cur) < len(wts) {
		cur = make([]int, len(wts))
	}
	cur = cur[:len(wts)]
	for i := range cur {
		cur[i] = 0
	}
	s.wrrCur = cur
	table := s.wrrTable[:0]
	// nginx-style smooth WRR: each step every candidate gains its weight,
	// the largest current value wins (lowest index on ties, keeping the
	// sequence deterministic), and the winner pays back the total.
	for step := 0; step < total; step++ {
		best := -1
		for i, w := range wts {
			if w == 0 {
				continue
			}
			cur[i] += w
			if best < 0 || cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		table = append(table, int32(best))
	}
	s.wrrTable = table
	// Restart the cursor: the old position indexes the old interleaving,
	// and carrying it into the new table would serve a stale smooth-WRR
	// pick — a mid-sequence offset biased toward whichever nodes the old
	// table front-loaded. The new table always begins with the canonical
	// smooth-WRR sequence for the new weights.
	s.wrrPos = 0
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ReportUsage ingests an accounting message: it releases the node's
// outstanding load, releases per-subscriber in-flight estimates, debits
// balances with actual usage, and refreshes the per-request predictors.
func (s *Scheduler) ReportUsage(rep UsageReport) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	nd, ok := s.nodes[rep.Node]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, rep.Node)
	}
	for id, u := range rep.BySubscriber {
		q, ok := s.subs[id]
		if !ok {
			def, registered := s.defs[id]
			if !registered {
				continue // subscriber removed or unknown; skip
			}
			// A usage report names this subscriber, so it now carries real
			// accounting state: materialize it.
			q = s.materialize(id, def)
		}
		// Settle outstanding credit first so the debit applies to the
		// up-to-date balance — the same order the eager per-tick crediting
		// produced.
		s.settleCredit(q)
		// Release the predictions charged at dispatch time for the
		// completed requests — exactly those, so prediction error never
		// lingers as phantom estimated load. Spare-funded dispatches are
		// refunded here, atomically with the actual-usage debit, so the
		// reservation balance pays only for reservation-round work and the
		// clamp can never eat a compensation.
		var released, refund qos.Vector
		if q.pending != nil {
			pq := &q.pending[nd.idx]
			k := u.Completed
			if k > pq.size() {
				k = pq.size()
			}
			for i := 0; i < k; i++ {
				pd := pq.at(i)
				released = released.Add(pd.predicted)
				if pd.spare {
					refund = refund.Add(pd.predicted)
				}
			}
			pq.release(k)
		}
		q.balance = s.clampBalance(q, q.balance.Sub(u.Usage).Add(refund))
		if s.rec != nil {
			q.cycUsage = q.cycUsage.Add(u.Usage)
			q.cycCompleted += u.Completed
			s.touch(q)
		}
		nd.outstanding = nd.outstanding.Sub(released).ClampNonNegative()
		// Reconcile the optimistic drain: the released work was (mostly)
		// the work we assumed was draining.
		nd.drained = nd.drained.Sub(released).ClampNonNegative().Min(nd.outstanding)
		if q.estimated != nil {
			est := q.estimated[nd.idx]
			newEst := est.Sub(released).ClampNonNegative()
			q.estimated[nd.idx] = newEst
			q.estTotal = q.estTotal.Sub(est.Sub(newEst))
		}
		if u.Completed > 0 {
			sample := u.Usage.Scale(1 / float64(u.Completed))
			a := s.cfg.PredictionAlpha
			q.predicted = sample.Scale(a).Add(q.predicted.Scale(1 - a))
		}
	}
	return nil
}

// CancelQueued removes a not-yet-dispatched request from its subscriber's
// FIFO queue, reporting whether it was found. A caller abandoning a request
// (client hang-up, wait timeout, shutdown) calls this first; a false return
// means the scheduler already dispatched the request and the caller must
// settle the charge with ReleaseDispatch instead.
func (s *Scheduler) CancelQueued(sub qos.SubscriberID, reqID uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.subs[sub]
	if !ok {
		return false
	}
	for i := q.head; i < len(q.fifo); i++ {
		if q.fifo[i].ID == reqID {
			copy(q.fifo[i:], q.fifo[i+1:])
			q.fifo[len(q.fifo)-1] = Request{} // release payload for GC
			q.fifo = q.fifo[:len(q.fifo)-1]
			return true
		}
	}
	return false
}

// ReleaseDispatch returns the charge of a dispatched-but-abandoned request:
// the prediction charged at dispatch time is removed from the node's
// outstanding load and the subscriber's in-flight estimate, atomically, as
// if an accounting message had released it — but without a usage debit,
// because the request never ran. Without this, an abandoned dispatch (the
// relay never executed, so the backend never completes it) would shrink the
// node's capacity forever. It reports whether the (subscriber, node, request)
// charge was found.
func (s *Scheduler) ReleaseDispatch(sub qos.SubscriberID, node NodeID, reqID uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.subs[sub]
	if !ok {
		return false
	}
	nd, ok := s.nodes[node]
	if !ok {
		return false
	}
	pd, ok := s.takePending(q, nd, reqID)
	if !ok {
		return false
	}
	s.releaseCharge(q, nd, pd.predicted)
	return true
}

// Redispatch moves an in-flight charge off a failed node: it releases the
// request's prediction from `from` and charges the next enabled node other
// than `from` instead, atomically. It returns the new node, or false when no
// alternate has room — in which case the charge has still been released and
// the caller should fail the request. This backs the dispatcher's relay
// retry: a backend that dies between dispatch and dial costs one extra round
// trip instead of a 502.
func (s *Scheduler) Redispatch(sub qos.SubscriberID, reqID uint64, from NodeID) (NodeID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.subs[sub]
	if !ok {
		return 0, false
	}
	fromNode, ok := s.nodes[from]
	if !ok {
		return 0, false
	}
	pd, ok := s.takePending(q, fromNode, reqID)
	if !ok {
		return 0, false
	}
	s.releaseCharge(q, fromNode, pd.predicted)
	alt := s.pickNodeExcept(pd.predicted, fromNode)
	if alt == nil {
		return 0, false
	}
	alt.outstanding = alt.outstanding.Add(pd.predicted)
	q.estimated[alt.idx] = q.estimated[alt.idx].Add(pd.predicted)
	q.estTotal = q.estTotal.Add(pd.predicted)
	q.pending[alt.idx].push(pendingDispatch{reqID: reqID, predicted: pd.predicted, spare: pd.spare})
	return alt.id, true
}

// takePending removes and returns the pending-prediction entry for reqID on
// the node, if present. Callers hold s.mu.
func (s *Scheduler) takePending(q *queueState, nd *nodeState, reqID uint64) (pendingDispatch, bool) {
	if q.pending == nil {
		return pendingDispatch{}, false
	}
	pq := &q.pending[nd.idx]
	for i := 0; i < pq.size(); i++ {
		if pq.at(i).reqID == reqID {
			pd := *pq.at(i)
			pq.remove(i)
			return pd, true
		}
	}
	return pendingDispatch{}, false
}

// releaseCharge backs out one dispatch-time prediction from a node's
// outstanding load and a subscriber's estimate. Callers hold s.mu.
func (s *Scheduler) releaseCharge(q *queueState, nd *nodeState, predicted qos.Vector) {
	nd.outstanding = nd.outstanding.Sub(predicted).ClampNonNegative()
	nd.drained = nd.drained.Min(nd.outstanding)
	if q.estimated != nil {
		est := q.estimated[nd.idx]
		newEst := est.Sub(predicted).ClampNonNegative()
		q.estimated[nd.idx] = newEst
		q.estTotal = q.estTotal.Sub(est.Sub(newEst))
	}
}

// clampBalance bounds a balance to ±reservation×CreditWindow.
func (s *Scheduler) clampBalance(q *queueState, b qos.Vector) qos.Vector {
	return b.Min(q.clampLim).Max(q.clampLim.Neg())
}

// QueueLen returns the number of queued (undispatched) requests for a
// subscriber, or 0 for unknown subscribers.
func (s *Scheduler) QueueLen(id qos.SubscriberID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.subs[id]; ok {
		return q.qlen()
	}
	return 0
}

// Dropped returns how many requests have been dropped for a subscriber due
// to queue overflow.
func (s *Scheduler) Dropped(id qos.SubscriberID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.subs[id]; ok {
		return q.dropped
	}
	return 0
}

// Dispatched returns how many dispatch decisions a subscriber has received
// since creation, or 0 for unknown subscribers.
func (s *Scheduler) Dispatched(id qos.SubscriberID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.subs[id]; ok {
		return q.dispatched
	}
	return 0
}

// Balance returns a subscriber's current reserved-resource balance. The
// balance is clamped to ±reservation×CreditWindow; tests and monitoring use
// this to observe the credit cap. Reading settles any lazily accrued credit
// first, so idle subscribers observe the same balance the eager per-tick
// crediting produced.
func (s *Scheduler) Balance(id qos.SubscriberID) (qos.Vector, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.subs[id]; ok {
		s.settleCredit(q)
		return q.balance, true
	}
	if def, ok := s.defs[id]; ok {
		// Never materialized: the balance is pure accrued credit, computed
		// directly — the same scale-then-clamp settleCredit would apply.
		k := s.cycleNum - def.regCycle
		if k == 0 {
			return qos.Vector{}, true
		}
		credit := def.res.PerCycle(s.cfg.Cycle)
		if k > 1 {
			credit = credit.Scale(float64(k))
		}
		lim := def.res.PerCycle(s.cfg.CreditWindow)
		return credit.Min(lim).Max(lim.Neg()), true
	}
	return qos.Vector{}, false
}

// Predicted returns the current per-request usage estimate for a subscriber.
func (s *Scheduler) Predicted(id qos.SubscriberID) (qos.Vector, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.subs[id]; ok {
		return q.predicted, true
	}
	if _, ok := s.defs[id]; ok {
		// Never materialized: still carrying the generic-cost prior.
		return qos.GenericCost(), true
	}
	return qos.Vector{}, false
}

// Outstanding returns a node's estimated outstanding load.
func (s *Scheduler) Outstanding(id NodeID) (qos.Vector, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if nd, ok := s.nodes[id]; ok {
		return nd.outstanding, true
	}
	return qos.Vector{}, false
}

// TotalDispatched returns the number of dispatches since creation.
func (s *Scheduler) TotalDispatched() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dispatched
}

// SetNodeWeight scales a node's admission bound to the fraction w of its
// capacity, clamped to [0, 1]. Weight 0 disables dispatching entirely
// (health management: a node that stops answering should stop receiving
// work); fractional weights implement slow-start recovery. In-flight
// accounting on a down-weighted node still settles normally, and its
// optimistic drain still runs at full physical capacity — the weight limits
// what we offer the node, not what we believe it can finish. Changing a
// weight recompiles the smooth-WRR pick table.
func (s *Scheduler) SetNodeWeight(id NodeID, w float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	nd, ok := s.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if w < 0 {
		w = 0
	} else if w > 1 {
		w = 1
	}
	if nd.weight != w {
		nd.weight = w
		nd.weightedBound = nd.bound.Scale(w)
		s.compileWRR()
	}
	return nil
}

// NodeWeight returns a node's current admission weight.
func (s *Scheduler) NodeWeight(id NodeID) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	nd, ok := s.nodes[id]
	if !ok {
		return 0, false
	}
	return nd.weight, true
}

// NodeEnabled reports whether a node currently receives any dispatches.
func (s *Scheduler) NodeEnabled(id NodeID) bool {
	w, ok := s.NodeWeight(id)
	return ok && w > 0
}

// AddSubscriber registers a new subscriber at runtime — hosting providers
// sign customers while the cluster is live. It fails on duplicates and
// invalid definitions. The caller must also update its classifier so the
// new subscriber's requests resolve.
func (s *Scheduler) AddSubscriber(sub qos.Subscriber) error {
	if err := sub.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.defs[sub.ID]; dup {
		return fmt.Errorf("core: subscriber %q already registered", sub.ID)
	}
	s.register(sub)
	return nil
}

// RemoveSubscriber unregisters a subscriber. Queued requests are dropped
// and returned so the caller can fail them; in-flight accounting state is
// discarded (its node outstanding still settles via reports of other
// subscribers' completions only — the node's remaining share drains). The
// reservation leaves its group's aggregate, and a group losing its last
// member is deleted.
func (s *Scheduler) RemoveSubscriber(id qos.SubscriberID) ([]Request, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	def, ok := s.defs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSubscriber, id)
	}
	var orphans []Request
	if q, ok := s.subs[id]; ok {
		for q.qlen() > 0 {
			orphans = append(orphans, q.pop())
		}
		// Release the subscriber's in-flight estimates from its nodes so the
		// capacity does not leak.
		for idx, est := range q.estimated {
			if est.IsZero() {
				continue
			}
			nd := s.nodeList[idx]
			nd.outstanding = nd.outstanding.Sub(est).ClampNonNegative()
			nd.drained = nd.drained.Min(nd.outstanding)
		}
		q.estTotal = qos.Vector{}
		s.deactivate(q)
		delete(s.subs, id)
	}
	g := def.grp
	g.aggRes -= def.res
	g.members--
	if g.members <= 0 {
		s.deactivateGroup(g)
		delete(s.groups, g.name)
	} else if g.aggRes < 0 {
		g.aggRes = 0 // float cancellation floor
	}
	delete(s.defs, id)
	return orphans, nil
}

// Groups returns the registered group names in sorted order.
func (s *Scheduler) Groups() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.groups))
	for name := range s.groups {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// GroupOf returns the group a subscriber belongs to.
func (s *Scheduler) GroupOf(id qos.SubscriberID) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	def, ok := s.defs[id]
	if !ok {
		return "", false
	}
	return def.grp.name, true
}

// GroupReservation returns a group's aggregate reservation.
func (s *Scheduler) GroupReservation(name string) (qos.GRPS, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[name]
	if !ok {
		return 0, false
	}
	return g.aggRes, true
}

// Registered returns the registered subscriber population size.
func (s *Scheduler) Registered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.defs)
}

// Materialized returns how many subscribers carry full scheduling state —
// those that have ever been enqueued. The gap to Registered is the lazy
// layer's win: the rest cost one definition record each.
func (s *Scheduler) Materialized() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Nodes returns the node IDs in deterministic order.
func (s *Scheduler) Nodes() []NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]NodeID, len(s.nodeList))
	for i, nd := range s.nodeList {
		out[i] = nd.id
	}
	return out
}
