package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"gage/internal/classify"
	"gage/internal/core"
	"gage/internal/faults"
	"gage/internal/flightrec"
	"gage/internal/metrics"
	"gage/internal/obs"
	"gage/internal/qos"
	"gage/internal/telemetry"
	"gage/internal/vclock"
	"gage/internal/workload"
)

// frontEnd is one RDN instance of the simulated cluster.
type frontEnd struct {
	// id is the instance's 1-based tier identity.
	id    int
	sched *core.Scheduler
	cpu   rdn
	// rec, when non-nil, is the instance's flight recorder.
	rec *flightrec.Recorder
	// alive is false between an RDN crash and its recovery.
	alive bool
	// grant is the instance's believed ownership: group → the epoch at
	// which the lease table granted it. A deposed owner keeps its stale
	// entry (it has no way to know) — its dispatches carry the old epoch and
	// die at the delivery fence. Nil on a one-front-end run.
	grant map[string]uint64
	// busyAtWindowStart snapshots cpu.busy when measurement begins.
	busyAtWindowStart time.Duration
	// report is the instance's slice of the accounting message being split
	// by ownership (tier only), reused from one message to the next.
	report core.UsageReport
}

// subEntry is one subscriber's row of simulator state: what it is now and
// everything measured about it. It is made when the subscriber is defined —
// at the start or by a scripted admission — and never dropped, so a removed
// subscriber's requests still in flight settle into it and its result row
// still assembles. Only the admission plane writes def and floor; only the
// hops write the measurements.
type subEntry struct {
	// def is the current definition (tenant group included) through scripted
	// resizes; a removed subscriber keeps its last.
	def qos.Subscriber
	// floor is the balance clamp floor for the per-tick audit: no balance may
	// ever sit below −reservation×CreditWindow.
	floor qos.Vector

	// Window-only measurements: generic units and request counts offered,
	// served and dropped; completion and RDN-observed usage samples; and the
	// served requests' latencies, exact and as the live histogram type.
	offered, served, dropped             float64
	offeredReqs, servedReqs, droppedReqs int
	series, observed                     metrics.Series
	latencies                            metrics.Chunks[float64]
	latHist                              *telemetry.Histogram
}

// define installs a subscriber's definition — new, re-admitted or resized —
// and the clamp floor that follows from it.
func (s *sim) define(def qos.Subscriber) {
	e := s.subs[def.ID]
	if e == nil {
		e = &subEntry{latHist: telemetry.NewHistogram()}
		s.subs[def.ID] = e
	}
	e.def = def
	e.floor = def.Reservation.PerCycle(s.opts.CreditWindow).Neg()
}

// flight carries one dispatch decision across its wire-latency and
// service-time hops, stamped with the dispatching front end and (on a tier)
// its grant epoch for delivery fencing. Carriers are recycled within a run
// so the dispatch chain schedules allocation-free.
type flight struct {
	req       *workload.Request
	sub       *subEntry
	node      *nodeEntry
	front     *frontEnd
	grant     uint64
	epoch     int
	effective qos.Vector
}

// freeList recycles a hop's carriers within a run (requests: Stream.Release).
type freeList[T any] []*T

func (l *freeList[T]) get() *T {
	k := len(*l)
	if k == 0 {
		return new(T)
	}
	x := (*l)[k-1]
	(*l)[k-1] = nil
	*l = (*l)[:k-1]
	return x
}

// put zeroes the carrier so a pooled one pins nothing.
func (l *freeList[T]) put(x *T) {
	var zero T
	*x = zero
	*l = append(*l, x)
}

// sim is the one simulator event loop behind Run and RunFrontier: an engine,
// one record per RPN and per subscriber, one feedback book and a slice of
// front ends. With one front end (RDNCount 1) tier is nil and every hop
// takes its direct branch — no lease table, no heartbeats, no per-arrival
// routing, no accounting split. With more, tier holds the lease table and
// partition geography and the same hops route through it.
type sim struct {
	opts   FrontierOptions
	engine *vclock.Engine
	// start is the run's virtual origin; measurement begins at measureFrom.
	start, measureFrom time.Time

	// nodes holds the RPN records in joining order — the order their
	// accounting cycles were registered in — and nodeByID indexes them.
	nodes    []*nodeEntry
	nodeByID map[core.NodeID]*nodeEntry
	// subs indexes the record of every subscriber ever defined.
	subs   map[qos.SubscriberID]*subEntry
	fronts []*frontEnd
	book   *chaosRun
	tier   *tier
	inj    *faults.Injector
	// es is the scripted admission plane; nil without a schedule.
	es *elasticState
	// stream yields the arrivals and takes their records back; nil on a replay.
	stream *workload.Stream

	classifier classify.Classifier
	// dyn resolves subscribers admitted at runtime.
	dyn *classify.DynamicClassifier

	// Whole-run admission counters.
	admitted, shed, refusedDead int
	// Whole-run tier migration counters and timeline.
	handedOff, lostQueued int
	takeovers             []TierChange

	// Pooled carriers and the per-run hop callbacks: each hop rides AtArg on
	// a pointer through a method value bound once, so the request chain
	// allocates no closure per event.
	flightFree freeList[flight]
	acctFree   freeList[acctMsg]
	enqueueFn  func(any)
	deliverFn  func(any)
	finishFn   func(any)
	acctFn     func(any)
}

// newSim validates the options and builds the cluster: RPNs, front ends with
// their schedulers, the feedback book and (for a tier) the lease table.
func newSim(opts FrontierOptions) (*sim, error) {
	if len(opts.Subscribers) == 0 {
		return nil, errors.New("cluster: at least one subscriber required")
	}
	if len(opts.Sources) == 0 && len(opts.ReplayTrace) == 0 {
		return nil, errors.New("cluster: a load source or replay trace required")
	}
	if len(opts.Recorders) > opts.RDNCount {
		return nil, fmt.Errorf("cluster: %d recorders for %d RDNs", len(opts.Recorders), opts.RDNCount)
	}
	if len(opts.Admissions) > 0 && opts.RDNCount > 1 {
		// The admission plane mutates one scheduler's directory and node
		// set; nothing partitions a scripted event across a tier.
		return nil, fmt.Errorf("cluster: scripted admissions need a single front end, not RDNCount %d", opts.RDNCount)
	}
	dir, err := qos.NewDirectory(opts.Subscribers)
	if err != nil {
		return nil, err
	}
	s := &sim{
		opts:     opts,
		engine:   vclock.NewEngine(time.Time{}),
		nodeByID: make(map[core.NodeID]*nodeEntry, opts.NumRPNs),
		subs:     make(map[qos.SubscriberID]*subEntry, dir.Len()),
		dyn:      classify.NewDynamicClassifier(),
	}
	s.start = s.engine.Now()
	s.measureFrom = s.start.Add(opts.Warmup)
	for i := 0; i < opts.NumRPNs; i++ {
		s.join(newNodeEntry(s.newRPN(core.NodeID(i+1), opts.RPNSpeed), false))
	}
	for _, sub := range opts.Subscribers {
		s.define(sub)
	}
	if opts.RDNCount > 1 {
		if err := s.buildTier(); err != nil {
			return nil, err
		}
	} else {
		sched, err := core.New(dir, s.nodeConfigs(1), s.coreConfig())
		if err != nil {
			return nil, err
		}
		s.fronts = []*frontEnd{{id: 1, sched: sched, alive: true}}
	}
	for _, fe := range s.fronts {
		fe.cpu.model = opts.RDN
	}
	if opts.Faults != nil {
		if err := opts.Faults.ValidateCluster(opts.NumRPNs, opts.RDNCount); err != nil {
			return nil, err
		}
		if s.inj, err = faults.NewInjector(*opts.Faults); err != nil {
			return nil, err
		}
	}
	s.book = newChaosRun(s.fronts, opts.Bus)

	// Admitted-at-runtime subscribers resolve through a dynamic classifier
	// chained after the static directory one; the chain is skipped entirely
	// when the run has no admission schedule so the steady-state classify
	// hop stays lock-free.
	s.classifier = classify.NewHostClassifier(dir)
	if len(opts.Admissions) > 0 {
		s.classifier = classify.Chain{s.classifier, s.dyn}
	}
	s.wireObservers()
	s.enqueueFn, s.deliverFn, s.finishFn, s.acctFn = s.enqueueHop, s.deliverHop, s.finishHop, s.acctHop
	return s, nil
}

func (s *sim) coreConfig() core.Config {
	return core.Config{
		Cycle:                s.opts.SchedCycle,
		CreditWindow:         s.opts.CreditWindow,
		OutstandingWindow:    s.opts.OutstandingWindow,
		Gate:                 s.opts.Gate,
		PredictionAlpha:      s.opts.SchedulerAlpha,
		DisableCapacityDrain: s.opts.DisableCapacityDrain,
	}
}

func (s *sim) newRPN(id core.NodeID, speed float64) *RPN {
	r := NewRPN(id, speed, linkBandwidth)
	r.SetOverhead(s.opts.RPNOverhead)
	r.SetCache(s.opts.CacheEntries)
	return r
}

// join adds a node's record to the pool.
func (s *sim) join(n *nodeEntry) {
	s.nodes = append(s.nodes, n)
	s.nodeByID[n.rpn.id] = n
}

// nodeConfigs declares every RPN to a scheduler at the given share of its
// capacity: 1 for a lone front end, its partition's reservation share for a
// tier member.
func (s *sim) nodeConfigs(share float64) []core.NodeConfig {
	cfgs := make([]core.NodeConfig, len(s.nodes))
	for i, n := range s.nodes {
		c := n.rpn.Capacity()
		if share != 1 {
			c = c.Scale(share)
		}
		cfgs[i] = core.NodeConfig{ID: n.rpn.id, Capacity: c}
	}
	return cfgs
}

// sinceStart is the clock every recorder and bus stamps with: virtual
// offsets from the start of the run, warmup included — the same origin as
// request arrivals and fault events.
func (s *sim) sinceStart() time.Duration { return s.engine.Now().Sub(s.start) }

// wireObservers points the recorders and the bus at the virtual clock.
// Front end i records into Recorders[i−1]; front end 1 falls back to
// Options.Recorder when Recorders names none for it.
func (s *sim) wireObservers() {
	if s.opts.Bus != nil {
		s.opts.Bus.SetClock(s.sinceStart)
	}
	for i, fe := range s.fronts {
		if i < len(s.opts.Recorders) {
			fe.rec = s.opts.Recorders[i]
		}
		if fe.rec == nil && i == 0 {
			fe.rec = s.opts.Recorder
		}
		if fe.rec == nil {
			continue
		}
		fe.rec.SetClock(s.sinceStart)
		if s.tier != nil {
			fe.rec.SetRDN(fe.id)
		}
		if s.opts.Bus != nil {
			fe.rec.SetBus(s.opts.Bus)
		}
		fe.sched.SetRecorder(fe.rec)
	}
}

// arrivalFeed is the run's arrival trace as the engine pulls it, a request
// at a time: the lazy merge of the load sources, or — a replay trace being
// already in the caller's memory — its arrival-ordered copy.
func (s *sim) arrivalFeed() func() (time.Time, any, bool) {
	var pull func() (*workload.Request, bool)
	if len(s.opts.ReplayTrace) == 0 {
		s.stream = workload.NewStream(s.opts.Sources, s.opts.Warmup+s.opts.Duration, 1)
		pull = s.stream.Next
	} else {
		trace := workload.Merge(s.opts.ReplayTrace)
		pull = func() (*workload.Request, bool) {
			if len(trace) == 0 {
				return nil, false
			}
			req := &trace[0]
			trace = trace[1:]
			return req, true
		}
	}
	return func() (time.Time, any, bool) {
		req, ok := pull()
		if !ok {
			return time.Time{}, nil, false
		}
		return s.start.Add(req.Arrival), req, true
	}
}

func (s *sim) inWindow(t time.Time) bool { return !t.Before(s.measureFrom) }

// units converts a usage vector to generic units: a single resource
// dimension when Options.UnitResource names one, else the max across them.
func (s *sim) units(v qos.Vector) float64 {
	if s.opts.UnitResource != 0 {
		return v.UnitsOf(s.opts.UnitResource)
	}
	return v.GenericUnits()
}

// traced selects span-sampled requests: every TraceEvery-th, given a bus to
// publish on. The zero trace ID never occurs (Mint offsets the RDN field)
// so "untraced" needs no sentinel.
func (s *sim) traced(id uint64) bool {
	return s.opts.TraceEvery != 0 && s.opts.Bus != nil && id%s.opts.TraceEvery == 0
}

// span publishes one lifecycle span of a sampled request; a settle span
// also feeds the auditor's exemplar reservoir.
func (s *sim) span(req *workload.Request, sub qos.SubscriberID, node core.NodeID, stage, detail string) {
	id := obs.Mint(0, req.ID)
	s.opts.Bus.Publish(obs.Event{Kind: obs.KindSpan, Trace: id, Sub: string(sub),
		Node: int(node), Stage: stage, Detail: detail})
	if stage == obs.StageSettle {
		s.opts.Auditor.NoteExemplar(sub, id)
	}
}

// run schedules every hop in a fixed order — same-instant events fire in
// registration order, so this order is part of the simulator's output — and
// advances the engine to the end of the measured window. The arrivals are a
// feed, pulled as the clock reaches them: they hold the place in that order
// where the feed is registered, after the auditor and before everything else.
func (s *sim) run() error {
	if s.opts.Auditor != nil && s.opts.Recorder != nil {
		// The live audit ticks with the accounting cycle: violation spans
		// open and close at deterministic virtual offsets, not at whatever
		// wall-clock moment a scraper happened to sync.
		s.engine.Every(s.opts.AcctCycle, s.opts.Auditor.Sync)
	}
	s.engine.Feed(s.arriveHop, s.arrivalFeed())
	s.scheduleFaults()
	s.engine.Every(s.opts.SchedCycle, s.tick)
	for _, n := range s.nodes {
		s.startAcct(n)
	}
	if s.tier != nil {
		s.engine.Every(s.opts.LeaseInterval/beatsPerLease, s.beat)
	}
	if len(s.opts.Admissions) > 0 {
		s.es = &elasticState{sim: s}
		for _, ev := range s.opts.Admissions {
			ev := ev
			s.engine.At(s.start.Add(ev.At), func() { s.es.apply(ev) })
		}
	}
	// Utilization is measured over the window only.
	s.engine.At(s.measureFrom, func() {
		for _, fe := range s.fronts {
			fe.busyAtWindowStart = fe.cpu.busy
		}
	})
	if err := s.engine.RunUntil(s.start.Add(s.opts.Warmup + s.opts.Duration)); err != nil {
		return err
	}
	if s.opts.Auditor != nil {
		// Catch the tail: records committed after the last audit tick.
		s.opts.Auditor.Sync()
	}
	return nil
}

// arriveHop lands one client connection on a front end and charges its CPU;
// the request is classified and queued when that admission work completes.
// On a tier the connection goes to its partition owner's instance.
func (s *sim) arriveHop(arg any) {
	fe := s.fronts[0]
	if s.tier != nil {
		if fe = s.route(arg.(*workload.Request)); fe == nil {
			return
		}
	}
	s.engine.AtArg(fe.cpu.admit(s.engine.Now()), s.enqueueFn, arg)
}

// enqueueHop classifies one admitted request and submits it to its front
// end's scheduler: a request its subscriber's reservation already covers is
// launched at its RPN now, any other waits in its queue for the tick. A full
// queue sheds it: overload control at the RDN's edge, counted over the whole
// run so the books close exactly.
func (s *sim) enqueueHop(arg any) {
	req := arg.(*workload.Request)
	sub, ok := s.classifier.Classify(req.Host, req.Path)
	if !ok {
		// Unclassifiable: the RDN has no queue for it.
		s.release(req)
		return
	}
	e := s.subs[sub]
	inWindow := s.inWindow(s.engine.Now())
	u := s.units(req.Cost)
	if inWindow {
		e.offered += u
		e.offeredReqs++
	}
	if s.traced(req.ID) {
		s.span(req, sub, 0, "classify", "")
	}
	fe := s.fronts[0]
	if s.tier != nil {
		// Ownership may have moved while the admission work was queued.
		fe = s.owner(e)
	}
	var affinity uint64
	if s.opts.LocalityDispatch {
		affinity = localityKey(req.Host, req.Path)
	}
	var outcome string
	if fe == nil {
		s.refusedDead++
		outcome = "refused"
	} else if d, now, err := fe.sched.Submit(core.Request{ID: req.ID, Subscriber: sub, Affinity: affinity, Payload: req}); err != nil {
		s.shed++
		outcome = "shed"
	} else {
		s.admitted++
		if s.traced(req.ID) {
			s.span(req, sub, 0, "queue", "")
		}
		if now {
			s.launch(fe, d)
		}
		return
	}
	if inWindow {
		e.dropped += u
		e.droppedReqs++
	}
	if s.traced(req.ID) {
		s.span(req, sub, 0, obs.StageSettle, outcome)
	}
	s.release(req)
}

// release gives a request's record back to its stream. A request has one
// holder at a time — admission hop, queue, flight — and at most one flight (a
// reclaimed or fenced dispatch is settled, never requeued), so it ends where
// its flight does or where it is turned away unqueued (DESIGN §3).
func (s *sim) release(req *workload.Request) {
	if s.stream != nil {
		s.stream.Release(req)
	}
}

// land ends a flight, and with it the request it carried.
func (s *sim) land(f *flight) {
	req := f.req
	s.flightFree.put(f)
	s.release(req)
}

// launch sends one dispatch decision, made on arrival or by a tick, on its
// way to its RPN: it enters the settlement book and rides a pooled flight
// carrier through the wire-latency and service-time hops, stamped on a tier
// with its front end's grant epoch for the delivery fence. The node and
// subscriber records are resolved here, once, and ride the carrier.
func (s *sim) launch(fe *frontEnd, d core.Dispatch) {
	req, ok := d.Req.Payload.(*workload.Request)
	if !ok {
		return
	}
	n, e := s.nodeByID[d.Node], s.subs[d.Req.Subscriber]
	s.book.track(n, req.ID, e.def.ID, fe)
	if s.traced(req.ID) {
		s.span(req, e.def.ID, d.Node, "dispatch", "")
	}
	n.dispatches.Record(s.engine.Now().Sub(s.measureFrom), 1)
	f := s.flightFree.get()
	f.req, f.sub, f.node, f.front = req, e, n, fe
	if s.tier != nil {
		f.grant = fe.grant[e.def.Group]
	}
	s.engine.AfterArg(dispatchLatency, s.deliverFn, f)
}

// tick is the scheduling cycle: every live front end's dispatch decisions
// are launched, and every balance is audited against its clamp floor (tiny
// slack for Scale rounding). A scheduler that does not hold a subscriber —
// removed, or another instance's partition — reports no balance to audit.
func (s *sim) tick() {
	for _, fe := range s.fronts {
		if !fe.alive {
			continue
		}
		for _, d := range fe.sched.Tick() {
			s.launch(fe, d)
		}
		for id, e := range s.subs {
			b, ok := fe.sched.Balance(id)
			if !ok {
				continue
			}
			slack := b.Sub(e.floor)
			if slack.CPUTime < -time.Microsecond || slack.DiskTime < -time.Microsecond || slack.NetBytes < -1 {
				s.book.balanceViolations++
			}
		}
	}
}

// deliverHop is a dispatch reaching its RPN: crash check, epoch fence, then
// service. A decision that reaches a node which crashed while it was on the
// wire, or was sent to one already down, is lost, and one whose (front end,
// grant epoch) stamp is no longer its group's current ownership is refused;
// either way the charge goes back so the dispatch still settles exactly once.
func (s *sim) deliverHop(arg any) {
	f := arg.(*flight)
	req, n := f.req, f.node
	if s.book.lostOnWire(n, req.ID) {
		if s.traced(req.ID) {
			s.span(req, f.sub.def.ID, n.rpn.id, obs.StageSettle, "reclaimed")
		}
		s.land(f)
		return
	}
	if s.tier != nil {
		if g := f.sub.def.Group; !s.tier.table.Valid(g, f.front.id, f.grant) {
			s.book.fenceOne(n, req.ID)
			if s.traced(req.ID) {
				s.span(req, f.sub.def.ID, n.rpn.id, obs.StageSettle, "fenced")
			}
			f.front.rec.Annotate(flightrec.TierEvent{Kind: "fence", Group: g, From: f.front.id, Epoch: f.grant})
			s.land(f)
			return
		}
	}
	f.epoch = n.rpn.Epoch()
	var fin time.Time
	fin, f.effective = n.rpn.process(s.engine.Now(), *req)
	s.engine.AtArg(fin, s.finishFn, f)
}

// finishHop is a request completing service: it settles as delivered,
// charges the node's accountant and lands in the window's measurements.
func (s *sim) finishHop(arg any) {
	f := arg.(*flight)
	defer s.land(f)
	n, e, req := f.node, f.sub, f.req
	if n.rpn.Epoch() != f.epoch {
		// The node crashed mid-service; the crash handler already
		// reclaimed this request's charge.
		if s.traced(req.ID) {
			s.span(req, e.def.ID, n.rpn.id, obs.StageSettle, "reclaimed")
		}
		return
	}
	s.book.complete(n, req.ID)
	if s.traced(req.ID) {
		s.span(req, e.def.ID, n.rpn.id, obs.StageSettle, "served")
	}
	n.rpn.chargeCompletion(*req, f.effective)
	now := s.engine.Now()
	if !s.inWindow(now) {
		return
	}
	u := s.units(req.Cost)
	e.served += u
	e.servedReqs++
	e.series.Record(now.Sub(s.measureFrom), u)
	latency := now.Sub(s.start.Add(req.Arrival))
	e.latencies.Add(latency.Seconds())
	e.latHist.Record(latency)
}

// startAcct begins one RPN's accounting cycle: cumulative counters flow
// back with latency and are diffed at delivery (like the live dispatcher's
// poller), so a dropped message delays feedback instead of losing usage
// forever. A crashed node is silent; silence past the streak threshold
// disables the node, and the first report after recovery re-enables it.
// Nodes added mid-run get theirs started at admission time (first tick one
// cycle later).
func (s *sim) startAcct(n *nodeEntry) {
	id := n.rpn.id
	s.engine.Every(s.opts.AcctCycle, func() {
		now := s.engine.Now()
		// Breaker time advances with the accounting cycle: slow-start ramps
		// climb here. The weight sample lands after this cycle's miss/ack
		// outcome is known.
		s.book.tickAcct(n, now)
		off := now.Sub(s.start)
		silent := n.crashed || (s.inj != nil && (s.inj.DropAcct(id, off) || s.inj.DropFrame(id, off)))
		if silent {
			s.book.missAcct(n, now)
		}
		n.weights.Record(now.Sub(s.measureFrom), n.weight())
		if silent {
			return
		}
		delay := feedbackLatency
		if s.inj != nil {
			delay += s.inj.AcctDelay(id, off)
		}
		a := s.acctFree.get()
		*a = s.book.send(n)
		s.engine.AfterArg(delay, s.acctFn, a)
	})
}

// acctHop is an accounting message reaching the front ends: the usage delta
// debits the scheduler that owns each subscriber, the node's breaker hears
// a success, and the delta lands in the observed series.
func (s *sim) acctHop(arg any) {
	a := arg.(*acctMsg)
	msg := *a
	s.acctFree.put(a)
	rep, ok := s.book.deliverAcct(msg)
	if !ok {
		return // stale: overtaken inside a delay window
	}
	if s.tier == nil {
		// Reports for known nodes cannot fail.
		_ = s.fronts[0].sched.ReportUsage(rep)
	} else {
		s.reportByOwner(rep)
	}
	now := s.engine.Now()
	s.book.ackAcct(msg.node, now)
	if !s.inWindow(now) {
		return
	}
	for sub, u := range rep.BySubscriber {
		if e := s.subs[sub]; e != nil {
			e.observed.Record(now.Sub(s.measureFrom), s.units(u.Usage))
		}
	}
}

// scheduleFaults registers the fault plan: crash/recover events fire at
// their exact virtual times; at every other state transition, each RPN's
// speed and bandwidth multipliers are re-derived from the injector.
// RDN-level events need a peer to fail over to and are tier-only.
func (s *sim) scheduleFaults() {
	if s.inj == nil {
		return
	}
	for _, ev := range s.opts.Faults.Events {
		ev := ev
		var fire func()
		switch {
		case ev.Kind == faults.NodeCrash:
			fire = func() {
				s.opts.Bus.Publish(obs.Event{Kind: obs.KindFault, Node: int(ev.Node), Detail: "crash"})
				s.book.crash(s.nodeByID[ev.Node])
			}
		case ev.Kind == faults.NodeRecover:
			fire = func() {
				s.opts.Bus.Publish(obs.Event{Kind: obs.KindFault, Node: int(ev.Node), Detail: "recover"})
				s.book.recover(s.nodeByID[ev.Node])
			}
		case ev.Kind == faults.RDNCrash && s.tier != nil:
			fire = func() { s.crashFront(s.fronts[ev.RDN-1]) }
		case ev.Kind == faults.RDNRecover && s.tier != nil:
			fire = func() { s.recoverFront(s.fronts[ev.RDN-1]) }
		default:
			continue
		}
		s.engine.At(s.start.Add(ev.At), fire)
	}
	for _, tr := range s.inj.Transitions() {
		tr := tr
		s.engine.At(s.start.Add(tr), func() {
			for _, n := range s.nodes {
				n.rpn.SetSpeedFactor(s.inj.Speed(n.rpn.id, tr))
				n.rpn.SetBandwidthFactor(s.inj.Bandwidth(n.rpn.id, tr))
			}
		})
	}
}

// addRPN grows the pool mid-run with a node entering at the bottom of the
// slow-start ramp (scripted AddNode).
func (s *sim) addRPN(ev AdmissionEvent) error {
	if _, dup := s.nodeByID[ev.Node]; dup {
		return fmt.Errorf("cluster: duplicate node %d", ev.Node)
	}
	speed := ev.NodeSpeed
	if speed <= 0 {
		speed = s.opts.RPNSpeed
	}
	n := newNodeEntry(s.newRPN(ev.Node, speed), true)
	if err := s.fronts[0].sched.AddNode(core.NodeConfig{ID: ev.Node, Capacity: n.rpn.Capacity()}, n.weight()); err != nil {
		return err
	}
	s.join(n)
	s.startAcct(n)
	return nil
}

// result assembles the run's outcome from the records: an entry in every
// per-node map for every node that ever joined and in every per-subscriber
// map for every subscriber ever defined, and a row, in subscriber-ID order,
// for each subscriber with traffic offered, served or dropped in the window.
func (s *sim) result() *FrontierResult {
	res := &FrontierResult{
		Result: Result{
			Series:            make(map[qos.SubscriberID]*metrics.Series, len(s.subs)),
			Observed:          make(map[qos.SubscriberID]*metrics.Series, len(s.subs)),
			LatencyHist:       make(map[qos.SubscriberID]*telemetry.Histogram, len(s.subs)),
			Window:            s.opts.Duration,
			DispatchedReqs:    s.book.dispatched,
			DeliveredReqs:     s.book.delivered,
			ReclaimedReqs:     s.book.reclaimed,
			BalanceViolations: s.book.balanceViolations,
			AdmittedReqs:      s.admitted,
			ShedReqs:          s.shed,
			NodeWeights:       make(map[core.NodeID]*metrics.Series, len(s.nodes)),
			NodeDispatches:    make(map[core.NodeID]*metrics.Series, len(s.nodes)),
		},
		Takeovers:       s.takeovers,
		RDNUtilization:  make([]float64, len(s.fronts)),
		RefusedDeadReqs: s.refusedDead,
		FencedReqs:      s.book.fenced,
		HandedOffReqs:   s.handedOff,
		LostQueuedReqs:  s.lostQueued,
	}
	if s.es != nil {
		res.OrphanedReqs = s.es.orphaned
		res.AdmissionLog = s.es.log
		res.AdmissionAccepted = s.es.accepted
		res.AdmissionRejected = s.es.rejected
	}
	if s.opts.Faults != nil {
		if fs, fe, ok := s.opts.Faults.ActiveWindow(); ok {
			res.Fault = &FaultReport{Start: fs - s.opts.Warmup, End: fe - s.opts.Warmup}
		}
	}
	var hits, misses uint64
	for _, n := range s.nodes {
		res.NodeWeights[n.rpn.id], res.NodeDispatches[n.rpn.id] = &n.weights, &n.dispatches
		res.InflightAtEnd += len(n.inflight)
		h, m := n.rpn.CacheStats()
		hits += h
		misses += m
	}
	if hits+misses > 0 {
		res.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	sec := s.opts.Duration.Seconds()
	var servedReqs int
	for _, id := range sortedKeys(s.subs) {
		e := s.subs[id]
		res.Series[id], res.Observed[id], res.LatencyHist[id] = &e.series, &e.observed, e.latHist
		for _, fe := range s.fronts {
			res.QueuedAtEnd += fe.sched.QueueLen(id)
		}
		if e.offeredReqs+e.servedReqs+e.droppedReqs == 0 {
			continue
		}
		// One copy: averaged in recording order, then sorted in place.
		latencies := e.latencies.Slice()
		mean := metrics.Mean(latencies)
		sort.Float64s(latencies)
		res.Rows = append(res.Rows, SubscriberRow{
			ID:          id,
			Reservation: e.def.Reservation,
			Offered:     e.offered / sec,
			Served:      e.served / sec,
			Dropped:     e.dropped / sec,
			OfferedReqs: e.offeredReqs,
			ServedReqs:  e.servedReqs,
			DroppedReqs: e.droppedReqs,
			MeanLatency: time.Duration(mean * float64(time.Second)),
			P95Latency:  time.Duration(metrics.PercentileSorted(latencies, 95) * float64(time.Second)),
		})
		servedReqs += e.servedReqs
	}
	res.ServedReqPerSec = float64(servedReqs) / sec
	if s.opts.RDN != nil {
		for i, fe := range s.fronts {
			res.RDNUtilization[i] = min(1, (fe.cpu.busy-fe.busyAtWindowStart).Seconds()/sec)
		}
		res.Result.RDNUtilization = res.RDNUtilization[0]
	}
	return res
}
