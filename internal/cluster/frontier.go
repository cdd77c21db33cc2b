package cluster

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"gage/internal/core"
	"gage/internal/flightrec"
	"gage/internal/frontier"
	"gage/internal/qos"
	"gage/internal/workload"
)

// minCapacityShare floors a front end's slice of each RPN's capacity: an
// instance that currently owns no partition must still hold a positive
// capacity so its scheduler stays constructible and can absorb a handback.
const minCapacityShare = 0.001

// beatsPerLease is how many heartbeats an instance sends per lease interval:
// a lease survives three lost beats.
const beatsPerLease = 4

// FrontierOptions configures a multi-RDN front-end tier run: the base
// experiment options plus the tier shape. Every Options field means what it
// means to Run — Bus, TraceEvery and Auditor included — except that
// Admissions is refused with more than one front end. Options.Recorder is
// front end 1's recorder unless Recorders names one for it.
type FrontierOptions struct {
	Options

	// RDNCount is the number of front-end instances (ids 1..RDNCount).
	// 1 is Run: one scheduler over full capacity, no lease table, no
	// heartbeats, and — there being no peer to fail over to — RDN-level
	// fault events are ignored.
	RDNCount int
	// LeaseInterval is how long an instance may stay silent before its lease
	// expires and its partition is taken over (default 1s); it beats
	// beatsPerLease times in each.
	LeaseInterval time.Duration
	// Recorders, when non-nil, holds one flight recorder per RDN
	// (index rdn−1); missing or nil slots record nothing.
	Recorders []*flightrec.Recorder
}

func (o FrontierOptions) withFrontierDefaults() FrontierOptions {
	o.Options = o.Options.withDefaults()
	if o.RDNCount <= 0 {
		o.RDNCount = 1
	}
	if o.LeaseInterval <= 0 {
		o.LeaseInterval = time.Second
	}
	return o
}

// TierChange is one partition ownership change the run executed, offsets
// from the start of the run (warmup included).
type TierChange struct {
	At    time.Duration
	Group string
	From  int
	To    int
	Epoch uint64
	Kind  string
}

// FrontierResult is a tier run's outcome: everything Run reports, assembled
// by the same code, plus what only a tier produces. The settlement counters
// close the books over every admitted request even across ownership moves:
//
//	AdmittedReqs == DispatchedReqs + QueuedAtEnd + LostQueuedReqs
//	DispatchedReqs == DeliveredReqs + ReclaimedReqs + FencedReqs + InflightAtEnd
//
// A handed-off request (withdrawn from a deposed owner's queue and requeued
// on the new owner) stays inside AdmittedReqs — it settles exactly once, on
// whichever scheduler finally dispatches it.
type FrontierResult struct {
	Result

	// Takeovers is every ownership change in execution order.
	Takeovers []TierChange
	// RDNUtilization is each front end's CPU utilization over the window
	// (index rdn−1; zeros when no RDN model was configured). It shadows
	// Result.RDNUtilization, which holds front end 1's.
	RDNUtilization []float64
	// RefusedDeadReqs counts arrivals that found their partition's owner
	// crashed before takeover — connection refused at a dead front end, the
	// tier's bounded blast radius made visible.
	RefusedDeadReqs int
	// FencedReqs counts dispatches refused at delivery because their epoch
	// stamp belonged to a deposed owner; each charge was reclaimed.
	FencedReqs int
	// HandedOffReqs counts queued requests moved to a new owner intact.
	HandedOffReqs int
	// LostQueuedReqs counts queued requests destroyed by an RDN crash (plus
	// any handoff requeue the new owner's queue limit refused).
	LostQueuedReqs int
}

// tier is what a run with more than one front end adds to the simulation:
// the lease table and the partition geography the hops route through.
type tier struct {
	table *frontier.Table
	// Group geography: member lists and aggregate reservations (a
	// subscriber's own group is in its record's definition).
	groupSubs map[string][]qos.Subscriber
	groupRes  map[string]qos.GRPS
	totalRes  qos.GRPS
}

// RunFrontier executes one experiment on an N-instance front-end tier:
// subscribers are partitioned across RDNs by rendezvous hash over their
// tenant groups, each instance runs its own credit scheduler over its share
// of every RPN's capacity, and a lease table (heartbeats on the virtual
// clock) detects dead instances, moves their partitions to survivors with a
// bumped fencing epoch, and hands partitions back when the preferred home
// rejoins. It is the same event loop as Run plus the lease table; with
// RDNCount == 1 it is Run.
func RunFrontier(opts FrontierOptions) (*FrontierResult, error) {
	s, err := newSim(opts.withFrontierDefaults())
	if err != nil {
		return nil, err
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// buildTier partitions the subscribers over RDNCount front ends: a lease
// table over the tenant groups, and per instance a scheduler holding its
// partition's subscribers on its reservation share of every RPN.
func (s *sim) buildTier() error {
	t := &tier{
		groupSubs: make(map[string][]qos.Subscriber),
		groupRes:  make(map[string]qos.GRPS),
	}
	for _, sub := range s.opts.Subscribers {
		t.groupSubs[sub.Group] = append(t.groupSubs[sub.Group], sub)
		t.groupRes[sub.Group] += sub.Reservation
		t.totalRes += sub.Reservation
	}
	groups := sortedKeys(t.groupSubs)
	var err error
	t.table, err = frontier.NewTable(frontier.Config{RDNs: s.opts.RDNCount, LeaseInterval: s.opts.LeaseInterval}, groups)
	if err != nil {
		return err
	}
	s.tier = t
	s.fronts = make([]*frontEnd, s.opts.RDNCount)
	for i := range s.fronts {
		s.fronts[i] = &frontEnd{id: i + 1, alive: true, grant: make(map[string]uint64),
			report: core.UsageReport{BySubscriber: make(map[qos.SubscriberID]core.SubscriberUsage)}}
	}
	for _, g := range groups {
		own, _ := t.table.Owner(g)
		s.fronts[own.RDN-1].grant[g] = own.Epoch
	}
	for _, fe := range s.fronts {
		var subs []qos.Subscriber
		for g := range fe.grant {
			subs = append(subs, t.groupSubs[g]...)
		}
		sort.Slice(subs, func(i, j int) bool { return subs[i].ID < subs[j].ID })
		dir, err := qos.NewDirectory(subs)
		if err != nil {
			return err
		}
		if fe.sched, err = core.New(dir, s.nodeConfigs(s.partShare(fe)), s.coreConfig()); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// partShare is the fraction of every RPN's capacity a front end's scheduler
// believes it holds: its partition's share of the total reservation.
func (s *sim) partShare(fe *frontEnd) float64 {
	if s.tier.totalRes <= 0 {
		return 1 / float64(len(s.fronts))
	}
	var res qos.GRPS
	for g := range fe.grant {
		res += s.tier.groupRes[g]
	}
	return max(float64(res/s.tier.totalRes), minCapacityShare)
}

// rebalance repoints every live scheduler's believed node capacities at
// its partition's reservation share.
func (s *sim) rebalance() {
	for _, fe := range s.fronts {
		if !fe.alive {
			continue
		}
		for _, cfg := range s.nodeConfigs(s.partShare(fe)) {
			// Known nodes with positive capacity cannot fail.
			_ = fe.sched.SetNodeCapacity(cfg.ID, cfg.Capacity)
		}
	}
}

// owner resolves a subscriber's current partition owner; nil while that
// instance is dead — the partition is dark until the lease expires and a
// survivor takes over.
func (s *sim) owner(e *subEntry) *frontEnd {
	own, found := s.tier.table.Owner(e.def.Group)
	if !found || !s.fronts[own.RDN-1].alive {
		return nil
	}
	return s.fronts[own.RDN-1]
}

// route picks the instance whose CPU an arriving connection costs: its
// partition owner's. A dead owner refuses the connection outright — no
// admission work, straight to the enqueue hop's refusal.
func (s *sim) route(req *workload.Request) *frontEnd {
	sub, ok := s.classifier.Classify(req.Host, req.Path)
	if !ok {
		// Unclassifiable traffic still costs front-end CPU somewhere;
		// charge the lowest live instance, as the lone front end would be.
		for _, fe := range s.fronts {
			if fe.alive {
				return fe
			}
		}
		return nil
	}
	fe := s.owner(s.subs[sub])
	if fe == nil {
		s.enqueueHop(req)
	}
	return fe
}

// reportByOwner splits one RPN's usage delta by current partition ownership
// so each subscriber's usage debits exactly one scheduler. Each instance's
// slice is built in its own reusable report: ReportUsage reads the report
// under the scheduler's lock and keeps nothing of it, so the next message
// may clear and refill it.
func (s *sim) reportByOwner(delta core.UsageReport) {
	for _, fe := range s.fronts {
		clear(fe.report.BySubscriber)
		fe.report.Node, fe.report.Total = delta.Node, qos.Vector{}
	}
	for sub, u := range delta.BySubscriber {
		e := s.subs[sub]
		if e == nil {
			continue
		}
		fe := s.owner(e)
		if fe == nil {
			continue // ownerless span: usage of a dead partition
		}
		fe.report.BySubscriber[sub] = u
		fe.report.Total = fe.report.Total.Add(u.Usage)
	}
	for _, fe := range s.fronts {
		if len(fe.report.BySubscriber) > 0 {
			// Reports for known nodes cannot fail.
			_ = fe.sched.ReportUsage(fe.report)
		}
	}
}

// crashFront fail-stops one instance: its queued requests are destroyed and
// its heartbeats go silent; its in-flight dispatches complete (the RPN
// already holds the spliced connection).
func (s *sim) crashFront(fe *frontEnd) {
	if !fe.alive {
		return
	}
	fe.alive = false
	for _, g := range sortedKeys(fe.grant) {
		if orphans, err := fe.sched.RemoveGroup(g); err == nil {
			s.lostQueued += len(orphans)
		}
	}
	fe.grant = make(map[string]uint64)
	for _, peer := range s.fronts {
		if peer.alive && peer.rec != nil {
			peer.rec.Annotate(flightrec.TierEvent{Kind: "rdn-crash", From: fe.id})
			break
		}
	}
}

// recoverFront restarts a crashed instance empty — the lease table hands
// its home partition back with full state on its next heartbeat.
func (s *sim) recoverFront(fe *frontEnd) {
	if fe.alive {
		return
	}
	emptyDir, err := qos.NewDirectory(nil)
	if err != nil {
		return
	}
	sc, err := core.New(emptyDir, s.nodeConfigs(minCapacityShare), s.coreConfig())
	if err != nil {
		return
	}
	fe.sched, fe.alive = sc, true
	if fe.rec != nil {
		sc.SetRecorder(fe.rec)
	}
	fe.rec.Annotate(flightrec.TierEvent{Kind: "rdn-recover", To: fe.id})
}

// beat is the lease heartbeat: each live instance exports accounting
// snapshots of its partition and beats the table; a LeaseDelay window
// stretches the wire.
func (s *sim) beat() {
	for _, fe := range s.fronts {
		if !fe.alive {
			continue
		}
		fe := fe
		snaps := make(map[string][]core.SubscriberState, len(fe.grant))
		for _, g := range sortedKeys(fe.grant) {
			if st, err := fe.sched.ExportGroup(g); err == nil {
				snaps[g] = st
			}
		}
		var delay time.Duration
		if s.inj != nil {
			delay = s.inj.LeaseDelayAt(fe.id, s.sinceStart())
		}
		s.engine.After(delay, func() { s.beatArrive(fe, snaps) })
	}
}

// beatArrive lands one heartbeat on the lease table. Expiry checks run at
// beat arrival — a survivor's beat is what discovers a dead peer's expired
// lease and executes the takeover.
func (s *sim) beatArrive(fe *frontEnd, snaps map[string][]core.SubscriberState) {
	off := s.sinceStart()
	// Unknown RDNs cannot occur: beats originate from the tier's own ids.
	_ = s.tier.table.Beat(fe.id, off, snaps)
	changes := s.tier.table.Check(off)
	for _, ch := range changes {
		s.applyChange(ch, off)
	}
	if len(changes) > 0 {
		s.rebalance()
	}
}

// applyChange executes one lease-table ownership change.
func (s *sim) applyChange(ch frontier.Change, off time.Duration) {
	from, to := s.fronts[ch.From-1], s.fronts[ch.To-1]
	var states []core.SubscriberState
	var orphans []core.Request
	switch ch.Kind {
	case frontier.Handback:
		// The old owner is live and cooperating: export fresh state (the
		// beat-trail snapshot is one beat stale) and drain its queues.
		if st, err := from.sched.ExportGroup(ch.Group); err == nil {
			states = st
		} else {
			states = ch.Snapshot
		}
		if o, err := from.sched.RemoveGroup(ch.Group); err == nil {
			orphans = o
		}
		delete(from.grant, ch.Group)
	case frontier.Takeover:
		// The old owner is unreachable — crashed, or alive but deposed
		// (delayed heartbeats). Rebuild from its last heartbeat snapshot;
		// never touch its scheduler. A deposed survivor keeps dispatching
		// from stale queues until the delivery fence refuses each one.
		states = ch.Snapshot
		if states == nil {
			for _, sub := range s.tier.groupSubs[ch.Group] {
				states = append(states, core.SubscriberState{
					ID: sub.ID, Reservation: sub.Reservation,
					QueueLimit: sub.QueueLimit, Group: sub.Group,
				})
			}
		}
	}
	// A deposed instance repossessing its home partition still holds the
	// stale copy: drop it first, keeping its queued requests.
	var stale []core.Request
	if slices.Contains(to.sched.Groups(), ch.Group) {
		stale, _ = to.sched.RemoveGroup(ch.Group)
	}
	for _, st := range states {
		// Cannot collide: the group was just removed if present.
		_ = to.sched.ImportSubscriberState(st)
	}
	to.grant[ch.Group] = ch.Epoch
	for _, rq := range append(orphans, stale...) {
		if err := to.sched.Enqueue(rq); err != nil {
			s.lostQueued++
		} else {
			s.handedOff++
		}
	}
	to.rec.Annotate(flightrec.TierEvent{
		Kind: ch.Kind.String(), Group: ch.Group,
		From: ch.From, To: ch.To, Epoch: ch.Epoch,
	})
	s.takeovers = append(s.takeovers, TierChange{
		At: off, Group: ch.Group, From: ch.From, To: ch.To,
		Epoch: ch.Epoch, Kind: ch.Kind.String(),
	})
}
