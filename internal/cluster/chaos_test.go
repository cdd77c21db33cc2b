package cluster

import (
	"reflect"
	"testing"
	"time"

	"gage/internal/core"
	"gage/internal/faults"
	"gage/internal/metrics"
	"gage/internal/qos"
	"gage/internal/workload"
)

// chaosOptions is the canonical chaos scenario: four subscribers each
// reserving a quarter of their demand's worth of capacity, on four RPNs that
// together hold 4× the total reservation — so three survivors can absorb the
// fourth node's load during a crash.
func chaosOptions(plan *faults.Plan) Options {
	return Options{
		Subscribers: []qos.Subscriber{
			{ID: "a", Hosts: []string{"a.example"}, Reservation: 25},
			{ID: "b", Hosts: []string{"b.example"}, Reservation: 25},
			{ID: "c", Hosts: []string{"c.example"}, Reservation: 25},
			{ID: "d", Hosts: []string{"d.example"}, Reservation: 25},
		},
		Sources: []workload.Source{
			mustConstSource("a", "a.example", 25, qos.GenericCost()),
			mustConstSource("b", "b.example", 25, qos.GenericCost()),
			mustConstSource("c", "c.example", 25, qos.GenericCost()),
			mustConstSource("d", "d.example", 25, qos.GenericCost()),
		},
		NumRPNs:  4,
		Faults:   plan,
		Warmup:   2 * time.Second,
		Duration: 30 * time.Second,
	}
}

// crashPlan crashes node 2 at t=10s into the run and recovers it at t=20s —
// the scripted-failure experiment from EXPERIMENTS.md.
func crashPlan() *faults.Plan {
	return &faults.Plan{Seed: 42, Events: []faults.Event{
		{At: 10 * time.Second, Kind: faults.NodeCrash, Node: 2},
		{At: 20 * time.Second, Kind: faults.NodeRecover, Node: 2},
	}}
}

// assertSettled checks the standing chaos invariants on any Result: every
// dispatch settles exactly once, and no balance ever fell below its clamp
// floor.
func assertSettled(t *testing.T, res *Result) {
	t.Helper()
	if got := res.DeliveredReqs + res.ReclaimedReqs + res.InflightAtEnd; got != res.DispatchedReqs {
		t.Errorf("settlement broken: dispatched=%d but delivered+reclaimed+inflight=%d (%d+%d+%d)",
			res.DispatchedReqs, got, res.DeliveredReqs, res.ReclaimedReqs, res.InflightAtEnd)
	}
	if res.BalanceViolations != 0 {
		t.Errorf("balance audit found %d violations below the clamp floor, want 0", res.BalanceViolations)
	}
}

func TestChaosCrashReplayable(t *testing.T) {
	run := func() *Result {
		res, err := Run(chaosOptions(crashPlan()))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	r1 := run()
	r2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("same workload seed + fault plan produced different Results; chaos runs must be byte-replayable")
	}
	assertSettled(t, r1)
	if r1.ReclaimedReqs == 0 {
		t.Error("crashing a node mid-run reclaimed nothing; in-flight requests must be released")
	}
	if r1.Fault == nil {
		t.Fatal("Result.Fault is nil for a run with a fault plan")
	}
	// Plan offsets count from run start; FaultReport offsets from warmup end.
	if r1.Fault.Start != 8*time.Second || r1.Fault.End != 18*time.Second {
		t.Errorf("FaultReport = [%v, %v], want [8s, 18s]", r1.Fault.Start, r1.Fault.End)
	}
}

func TestChaosCrashDeviationBounded(t *testing.T) {
	res, err := Run(chaosOptions(crashPlan()))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertSettled(t, res)
	// Three survivors hold 3× the total reservation, so every subscriber's
	// guarantee must hold through the crash: brief turbulence while the
	// missed-accounting detector converges (3 cycles) is acceptable, but the
	// mean deviation in each phase stays bounded.
	for _, row := range res.Rows {
		pd, err := res.PhaseDeviation(row.ID, time.Second)
		if err != nil {
			t.Fatalf("PhaseDeviation(%s): %v", row.ID, err)
		}
		if !pd.PreOK || !pd.DuringOK || !pd.PostOK {
			t.Fatalf("phase windows too short for %s: %+v", row.ID, pd)
		}
		t.Logf("%s: pre=%.3f during=%.3f post=%.3f", row.ID, pd.Pre, pd.During, pd.Post)
		if pd.Pre > 0.10 {
			t.Errorf("%s: pre-fault deviation %.3f exceeds 0.10", row.ID, pd.Pre)
		}
		if pd.During > 0.25 {
			t.Errorf("%s: during-crash deviation %.3f exceeds 0.25", row.ID, pd.During)
		}
		if pd.Post > 0.10 {
			t.Errorf("%s: post-recovery deviation %.3f exceeds 0.10", row.ID, pd.Post)
		}
	}
}

// TestChaosCrashWhileDispatchOnWire lands a crash inside the RDN→RPN wire
// latency of a dispatch to the crashing node: the crash sweep reclaims the
// in-flight entry, and the delivery that follows 50 µs later must find it
// settled — not reclaim it a second time. Dispatches leave between ticks, so
// the instant is taken from a fault-free run of the same workload (a fault
// plan changes nothing before its first event fires).
func TestChaosCrashWhileDispatchOnWire(t *testing.T) {
	bare, err := Run(chaosOptions(nil))
	if err != nil {
		t.Fatalf("Run without plan: %v", err)
	}
	opts := chaosOptions(nil)
	var crashAt time.Duration
	for _, s := range bare.NodeDispatches[2].Samples() {
		if s.T >= 8*time.Second {
			crashAt = opts.Warmup + s.T + 50*time.Microsecond
			break
		}
	}
	if crashAt == 0 {
		t.Fatal("fault-free run never dispatched to node 2 after 8 s")
	}
	res, err := Run(chaosOptions(&faults.Plan{Seed: 42, Events: []faults.Event{
		{At: crashAt, Kind: faults.NodeCrash, Node: 2},
		{At: 20 * time.Second, Kind: faults.NodeRecover, Node: 2},
	}}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertSettled(t, res)
	if res.ReclaimedReqs == 0 {
		t.Error("a crash with a dispatch on the wire reclaimed nothing")
	}
}

func TestChaosEmptyPlanMatchesNoPlan(t *testing.T) {
	bare, err := Run(chaosOptions(nil))
	if err != nil {
		t.Fatalf("Run without plan: %v", err)
	}
	empty, err := Run(chaosOptions(&faults.Plan{Seed: 99}))
	if err != nil {
		t.Fatalf("Run with empty plan: %v", err)
	}
	if !reflect.DeepEqual(bare, empty) {
		t.Error("an empty fault plan changed the Result; injection must be a no-op without events")
	}
	assertSettled(t, bare)
	if bare.ReclaimedReqs != 0 {
		t.Errorf("fault-free run reclaimed %d requests, want 0", bare.ReclaimedReqs)
	}
	if bare.Fault != nil {
		t.Error("Result.Fault must be nil when the plan has no events")
	}
}

func TestChaosMixedPlanDeterministic(t *testing.T) {
	plan := &faults.Plan{Seed: 1234, Events: []faults.Event{
		{At: 5 * time.Second, Kind: faults.SlowNode, Node: 1, Until: 12 * time.Second, Speed: 0.5},
		{At: 6 * time.Second, Kind: faults.LinkDegrade, Node: 3, Until: 14 * time.Second, Bandwidth: 0.25, Loss: 0.3},
		{At: 8 * time.Second, Kind: faults.DelayAccounting, Node: 2, Until: 16 * time.Second, Delay: 250 * time.Millisecond},
		{At: 10 * time.Second, Kind: faults.DropAccounting, Node: 4, Until: 13 * time.Second, Loss: 0.5},
		{At: 18 * time.Second, Kind: faults.NodeCrash, Node: 1},
		{At: 24 * time.Second, Kind: faults.NodeRecover, Node: 1},
	}}
	run := func() *Result {
		res, err := Run(chaosOptions(plan))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	r1 := run()
	r2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("mixed fault plan is not replayable; every injected decision must come from the plan's seed")
	}
	assertSettled(t, r1)
}

func TestChaosAccountingBlackoutDisablesThenRecovers(t *testing.T) {
	// A total accounting blackout on node 2 long past the streak threshold:
	// the detector must disable the node (so load shifts) and the first
	// report after the window must re-enable it. The node itself never
	// stops serving, so nothing is reclaimed and guarantees hold throughout.
	plan := &faults.Plan{Seed: 7, Events: []faults.Event{
		{At: 10 * time.Second, Kind: faults.DropAccounting, Node: 2, Until: 15 * time.Second},
	}}
	res, err := Run(chaosOptions(plan))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertSettled(t, res)
	if res.ReclaimedReqs != 0 {
		t.Errorf("blackout (no crash) reclaimed %d requests, want 0", res.ReclaimedReqs)
	}
	for _, row := range res.Rows {
		pd, err := res.PhaseDeviation(row.ID, time.Second)
		if err != nil {
			t.Fatalf("PhaseDeviation(%s): %v", row.ID, err)
		}
		t.Logf("%s: pre=%.3f during=%.3f post=%.3f", row.ID, pd.Pre, pd.During, pd.Post)
		if pd.DuringOK && pd.During > 0.25 {
			t.Errorf("%s: deviation %.3f during accounting blackout exceeds 0.25", row.ID, pd.During)
		}
	}
}

func TestChaosPlanTargetingMissingNodeRejected(t *testing.T) {
	opts := chaosOptions(&faults.Plan{Events: []faults.Event{
		{At: time.Second, Kind: faults.NodeCrash, Node: 9},
		{At: 2 * time.Second, Kind: faults.NodeRecover, Node: 9},
	}})
	if _, err := Run(opts); err == nil {
		t.Fatal("plan targeting node 9 of a 4-RPN cluster must be rejected")
	}
}

// overloadOptions is the overload-drill scenario: two reserved subscribers
// offered exactly their reservation, plus a zero-reservation site flooding
// the cluster to 3× its aggregate capacity, on four half-speed RPNs
// (≈50 GRPS each, ≈200 GRPS aggregate vs 600 GRPS offered). The flood must
// be shed at the queue limit while the reserved subscribers ride through a
// mid-run crash inside their guarantee.
func overloadOptions(plan *faults.Plan) Options {
	return Options{
		Subscribers: []qos.Subscriber{
			{ID: "gold", Hosts: []string{"gold.example"}, Reservation: 25},
			{ID: "silver", Hosts: []string{"silver.example"}, Reservation: 25},
			{ID: "free", Hosts: []string{"free.example"}, Reservation: 0, QueueLimit: 256},
		},
		Sources: []workload.Source{
			mustConstSource("gold", "gold.example", 25, qos.GenericCost()),
			mustConstSource("silver", "silver.example", 25, qos.GenericCost()),
			mustConstSource("free", "free.example", 550, qos.GenericCost()),
		},
		NumRPNs:  4,
		RPNSpeed: 0.5,
		Faults:   plan,
		Warmup:   2 * time.Second,
		Duration: 30 * time.Second,
	}
}

// TestChaosOverloadDrill is the acceptance drill for the overload-control
// layer: under 3× offered load with one backend crashing and recovering
// mid-run, reserved subscribers stay within 5% of their guarantee during the
// fault, the spare-capacity flood is shed instead of them, the recovered
// node's admission weight ramps monotonically through slow start back to
// full, and every offered request is accounted for exactly.
func TestChaosOverloadDrill(t *testing.T) {
	res, err := Run(overloadOptions(crashPlan()))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertSettled(t, res)
	if got := res.DispatchedReqs + res.QueuedAtEnd; got != res.AdmittedReqs {
		t.Errorf("admission books broken: admitted=%d but dispatched+queued=%d (%d+%d)",
			res.AdmittedReqs, got, res.DispatchedReqs, res.QueuedAtEnd)
	}

	// Shedding order: the flood is shed, reserved traffic never is.
	if res.ShedReqs == 0 {
		t.Error("3× overload shed nothing; the queue limit must bound the flood")
	}
	free, _ := res.Row("free")
	if free.DroppedReqs == 0 {
		t.Error("free subscriber saw no drops under 3× overload")
	}
	for _, id := range []qos.SubscriberID{"gold", "silver"} {
		row, ok := res.Row(id)
		if !ok {
			t.Fatalf("no row for %s", id)
		}
		if row.DroppedReqs != 0 {
			t.Errorf("%s: %d reserved requests shed; spare traffic must be shed first", id, row.DroppedReqs)
		}
		pd, err := res.PhaseDeviation(id, time.Second)
		if err != nil {
			t.Fatalf("PhaseDeviation(%s): %v", id, err)
		}
		if !pd.DuringOK {
			t.Fatalf("during-fault window too short for %s", id)
		}
		t.Logf("%s: pre=%.3f during=%.3f post=%.3f", id, pd.Pre, pd.During, pd.Post)
		if pd.During > 0.05 {
			t.Errorf("%s: during-fault deviation %.3f exceeds 0.05", id, pd.During)
		}
	}

	// Slow-start ramp: from the recovery instant on, the crashed node's
	// admission weight never moves backwards and ends at full capacity.
	recoverOff := res.Fault.End
	var ramp []float64
	for _, s := range res.NodeWeights[2].Samples() {
		if s.T >= recoverOff {
			ramp = append(ramp, s.Units)
		}
	}
	if len(ramp) == 0 {
		t.Fatal("no weight samples after recovery")
	}
	if !metrics.MonotoneNonDecreasing(ramp, 0) {
		t.Errorf("recovered node's weight ramp is not monotone: %v", ramp[:min(len(ramp), 12)])
	}
	if last := ramp[len(ramp)-1]; last != 1 {
		t.Errorf("recovered node's final weight = %v, want 1", last)
	}
	if ramp[0] >= 1 {
		t.Errorf("weight right after recovery = %v; slow start must begin below full", ramp[0])
	}

	// Dispatch share follows the ramp: nothing lands on the node between
	// failure detection and recovery, and across the slow-start window the
	// per-cycle dispatch count climbs monotonically as the weight steps up.
	const cycle = 100 * time.Millisecond // default accounting cycle
	rampBuckets := make([]float64, slowStartAcctCycles+1)
	var detectGap, afterRecovery int
	for _, s := range res.NodeDispatches[2].Samples() {
		switch {
		case s.T >= res.Fault.Start+time.Second && s.T < recoverOff:
			detectGap++
		case s.T >= recoverOff:
			afterRecovery++
			if i := int((s.T - recoverOff) / cycle); i < len(rampBuckets) {
				rampBuckets[i]++
			}
		}
	}
	if detectGap != 0 {
		t.Errorf("%d dispatches sent to the dead node after the detection window", detectGap)
	}
	if afterRecovery == 0 {
		t.Error("recovered node received no dispatches after recovery")
	}
	if rampBuckets[0] == 0 {
		t.Error("no dispatches in the first slow-start cycle; recovery must reopen traffic immediately")
	}
	if !metrics.MonotoneNonDecreasing(rampBuckets, 0) {
		t.Errorf("per-cycle dispatch share over the slow-start window is not monotone: %v", rampBuckets)
	}
}

// --- white-box unit tests for the chaosRun bookkeeping ---

// chaosFixture is a two-node book over one scheduler: the node records are
// what newSim would have made for nodes 1 and 2.
func chaosFixture(t *testing.T) (*core.Scheduler, *chaosRun, []*nodeEntry) {
	t.Helper()
	dir, err := qos.NewDirectory([]qos.Subscriber{
		{ID: "a", Hosts: []string{"a.example"}, Reservation: 10},
	})
	if err != nil {
		t.Fatalf("directory: %v", err)
	}
	nodes := []*nodeEntry{
		newNodeEntry(NewRPN(1, 1, linkBandwidth), false),
		newNodeEntry(NewRPN(2, 1, linkBandwidth), false),
	}
	cfgs := []core.NodeConfig{
		{ID: 1, Capacity: nodes[0].rpn.Capacity()},
		{ID: 2, Capacity: nodes[1].rpn.Capacity()},
	}
	sched, err := core.New(dir, cfgs, core.Config{})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return sched, newChaosRun([]*frontEnd{{id: 1, sched: sched, alive: true}}, nil), nodes
}

func TestChaosRunMissedStreakDisablesAndReportReenables(t *testing.T) {
	sched, cs, nodes := chaosFixture(t)
	n1 := nodes[0]
	now := time.Unix(0, 0)
	for i := 0; i < unhealthyAfterMissedAcct-1; i++ {
		cs.missAcct(n1, now)
		if !sched.NodeEnabled(1) {
			t.Fatalf("node disabled after %d misses, threshold is %d", i+1, unhealthyAfterMissedAcct)
		}
	}
	cs.missAcct(n1, now)
	if sched.NodeEnabled(1) {
		t.Fatal("node not disabled at the missed-accounting streak threshold")
	}
	// The first delivered report re-enables the node — but at the bottom of
	// the slow-start ramp, not at full weight.
	cs.ackAcct(n1, now)
	if !sched.NodeEnabled(1) {
		t.Fatal("a delivered report must re-enable the node")
	}
	wantStart := 1.0 / float64(slowStartAcctCycles+1)
	if w, _ := sched.NodeWeight(1); w != wantStart {
		t.Errorf("weight right after recovery = %v, want slow-start %v", w, wantStart)
	}
	// One step per accounting cycle back to full capacity.
	prev := wantStart
	for i := 0; i < slowStartAcctCycles; i++ {
		cs.tickAcct(n1, now)
		w, _ := sched.NodeWeight(1)
		if w < prev {
			t.Fatalf("ramp went backwards at cycle %d: %v -> %v", i+1, prev, w)
		}
		prev = w
	}
	if prev != 1 {
		t.Errorf("weight after %d cycles = %v, want 1", slowStartAcctCycles, prev)
	}
	// An untouched node never moved off full weight.
	if w, _ := sched.NodeWeight(2); w != 1 {
		t.Errorf("untouched node weight = %v, want 1", w)
	}
}

func TestChaosRunDeliverAcctStaleAndEpoch(t *testing.T) {
	_, cs, nodes := chaosFixture(t)
	n1 := nodes[0]
	mk := func(seq, epoch int, cpu time.Duration) acctMsg {
		return acctMsg{node: n1, seq: seq, epoch: epoch, cum: core.UsageReport{
			Node:  1,
			Total: qos.Vector{CPUTime: cpu},
			BySubscriber: map[qos.SubscriberID]core.SubscriberUsage{
				"a": {Usage: qos.Vector{CPUTime: cpu}, Completed: int(cpu / time.Millisecond)},
			},
		}}
	}

	d1, ok := cs.deliverAcct(mk(0, 0, 10*time.Millisecond))
	if !ok || d1.Total.CPUTime != 10*time.Millisecond {
		t.Fatalf("first delivery: delta=%v ok=%v", d1.Total, ok)
	}
	d2, ok := cs.deliverAcct(mk(2, 0, 30*time.Millisecond))
	if !ok || d2.Total.CPUTime != 20*time.Millisecond {
		t.Fatalf("in-order delivery: delta=%v ok=%v, want 20ms delta", d2.Total, ok)
	}
	// seq 1 was overtaken by seq 2 inside a delay window: stale, ignored.
	if _, ok := cs.deliverAcct(mk(1, 0, 20*time.Millisecond)); ok {
		t.Fatal("stale out-of-order message was accepted; it would double-count usage")
	}
	// New epoch: the node rebooted and counters restarted — the fresh
	// cumulative IS the delta even though it is smaller than the last seen.
	d3, ok := cs.deliverAcct(mk(0, 1, 5*time.Millisecond))
	if !ok || d3.Total.CPUTime != 5*time.Millisecond {
		t.Fatalf("post-crash delivery: delta=%v ok=%v, want 5ms delta", d3.Total, ok)
	}
	if d3.BySubscriber["a"].Usage.CPUTime != 5*time.Millisecond {
		t.Errorf("post-crash per-subscriber delta = %v, want 5ms", d3.BySubscriber["a"].Usage.CPUTime)
	}
}

func TestChaosRunCrashReclaimsInflight(t *testing.T) {
	_, cs, nodes := chaosFixture(t)
	n1, n2 := nodes[0], nodes[1]
	// A second front end that has itself crashed since dispatching: its
	// charge died with its scheduler, so the reclaim must not touch it (a
	// release on the nil scheduler would panic).
	dead := &frontEnd{id: 2}
	cs.fronts = append(cs.fronts, dead)
	cs.track(n1, 101, "a", cs.fronts[0])
	cs.track(n1, 102, "a", dead)
	cs.track(n2, 201, "a", cs.fronts[0])
	epochBefore := n1.rpn.Epoch()
	cs.crash(n1)
	if cs.reclaimed != 2 {
		t.Errorf("reclaimed = %d, want 2 (only node 1's in-flight work)", cs.reclaimed)
	}
	if len(n1.inflight) != 0 || len(n2.inflight) != 1 {
		t.Errorf("inflight after crash: node1=%d node2=%d, want 0 and 1", len(n1.inflight), len(n2.inflight))
	}
	if n1.rpn.Epoch() != epochBefore+1 {
		t.Error("crash must bump the node's epoch")
	}
	if !n1.crashed {
		t.Error("node 1 not marked crashed")
	}
	cs.recover(n1)
	if n1.crashed {
		t.Error("node 1 still marked crashed after recovery")
	}
	cs.complete(n2, 201)
	if got := cs.delivered + cs.reclaimed + len(n1.inflight) + len(n2.inflight); got != cs.dispatched {
		t.Errorf("settlement: dispatched=%d, delivered+reclaimed+inflight=%d", cs.dispatched, got)
	}
}
