package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"gage/internal/qos"
)

// fakeNode emulates one RPN for feedback-loop tests: it holds dispatched
// requests in FIFO order and, once per tick, completes as much work as its
// per-second capacity allows, returning the accounting message.
type fakeNode struct {
	id       NodeID
	capacity qos.Vector // per second
	inflight []fakeWork
}

type fakeWork struct {
	sub  qos.SubscriberID
	cost qos.Vector
}

func newFakeNode(id NodeID, capacity qos.Vector) *fakeNode {
	return &fakeNode{id: id, capacity: capacity}
}

// accept records a dispatch; cost is the request's true resource usage.
func (f *fakeNode) accept(sub qos.SubscriberID, cost qos.Vector) {
	f.inflight = append(f.inflight, fakeWork{sub: sub, cost: cost})
}

// tick completes up to cycle×capacity worth of work and returns the
// accounting message for the elapsed cycle.
func (f *fakeNode) tick(cycle time.Duration) UsageReport {
	budget := f.capacity.Scale(cycle.Seconds())
	rep := UsageReport{Node: f.id, BySubscriber: make(map[qos.SubscriberID]SubscriberUsage)}
	var done int
	for _, w := range f.inflight {
		if !budget.Dominates(w.cost) {
			break
		}
		budget = budget.Sub(w.cost)
		u := rep.BySubscriber[w.sub]
		u.Usage = u.Usage.Add(w.cost)
		u.Completed++
		rep.BySubscriber[w.sub] = u
		rep.Total = rep.Total.Add(w.cost)
		done++
	}
	f.inflight = f.inflight[done:]
	return rep
}

// nodeCap is a one-generic-request-per-10ms node: 100 GRPS.
func nodeCap() qos.Vector {
	return qos.Vector{CPUTime: time.Second, DiskTime: time.Second, NetBytes: 200_000}
}

func mustDirectory(t *testing.T, subs []qos.Subscriber) *qos.Directory {
	t.Helper()
	d, err := qos.NewDirectory(subs)
	if err != nil {
		t.Fatalf("NewDirectory: %v", err)
	}
	return d
}

func mustScheduler(t *testing.T, subs []qos.Subscriber, nodes []NodeConfig, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(mustDirectory(t, subs), nodes, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// arrivalAcc turns a fractional per-tick rate into integer arrivals.
type arrivalAcc struct {
	perTick float64
	carry   float64
	nextID  uint64
}

func (a *arrivalAcc) arrive() int {
	a.carry += a.perTick
	n := int(a.carry)
	a.carry -= float64(n)
	return n
}

// runLoop drives the scheduler with constant per-subscriber arrival rates
// against fake nodes for the given number of ticks, returning served
// generic-unit counts per subscriber (each request costs exactly one generic
// unit unless costs overrides it).
type loopResult struct {
	served  map[qos.SubscriberID]int
	dropped map[qos.SubscriberID]int
}

func runLoop(t *testing.T, s *Scheduler, nodes []*fakeNode, rates map[qos.SubscriberID]float64,
	costs map[qos.SubscriberID]qos.Vector, ticks, warmup int) loopResult {
	t.Helper()
	byID := make(map[NodeID]*fakeNode, len(nodes))
	for _, n := range nodes {
		byID[n.id] = n
	}
	accs := make(map[qos.SubscriberID]*arrivalAcc, len(rates))
	var id uint64
	for sub, r := range rates {
		accs[sub] = &arrivalAcc{perTick: r * s.Cycle().Seconds()}
	}
	res := loopResult{
		served:  make(map[qos.SubscriberID]int),
		dropped: make(map[qos.SubscriberID]int),
	}
	costOf := func(sub qos.SubscriberID) qos.Vector {
		if c, ok := costs[sub]; ok {
			return c
		}
		return qos.GenericCost()
	}
	subIDs := make([]qos.SubscriberID, 0, len(rates))
	for sub := range rates {
		subIDs = append(subIDs, sub)
	}
	// Deterministic order.
	for i := 0; i < len(subIDs); i++ {
		for j := i + 1; j < len(subIDs); j++ {
			if subIDs[j] < subIDs[i] {
				subIDs[i], subIDs[j] = subIDs[j], subIDs[i]
			}
		}
	}
	for tick := 0; tick < ticks; tick++ {
		for _, sub := range subIDs {
			arrivals := accs[sub].arrive()
			for i := 0; i < arrivals; i++ {
				id++
				err := s.Enqueue(Request{ID: id, Subscriber: sub})
				if errors.Is(err, ErrQueueFull) {
					if tick >= warmup {
						res.dropped[sub]++
					}
				} else if err != nil {
					t.Fatalf("Enqueue: %v", err)
				}
			}
		}
		for _, d := range s.Tick() {
			byID[d.Node].accept(d.Req.Subscriber, costOf(d.Req.Subscriber))
		}
		for _, n := range nodes {
			rep := n.tick(s.Cycle())
			if tick >= warmup {
				for sub, u := range rep.BySubscriber {
					res.served[sub] += u.Completed
				}
			}
			if err := s.ReportUsage(rep); err != nil {
				t.Fatalf("ReportUsage: %v", err)
			}
		}
	}
	return res
}

func TestNewValidation(t *testing.T) {
	dir := mustDirectory(t, []qos.Subscriber{{ID: "a", Reservation: 10}})
	if _, err := New(nil, []NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{}); err == nil {
		t.Error("nil directory must be rejected")
	}
	if _, err := New(dir, nil, Config{}); err != nil {
		t.Errorf("empty node pool must be accepted (grown later via AddNode): %v", err)
	}
	if _, err := New(dir, []NodeConfig{{ID: 1, Capacity: nodeCap()}, {ID: 1, Capacity: nodeCap()}}, Config{}); err == nil {
		t.Error("duplicate node IDs must be rejected")
	}
	if _, err := New(dir, []NodeConfig{{ID: 1}}, Config{}); err == nil {
		t.Error("zero node capacity must be rejected")
	}
	if _, err := New(dir, []NodeConfig{{ID: 1, Capacity: qos.Vector{CPUTime: -1}}}, Config{}); err == nil {
		t.Error("negative node capacity must be rejected")
	}
}

func TestConfigDefaults(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 10}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	if s.Cycle() != DefaultCycle {
		t.Errorf("default cycle = %v, want %v", s.Cycle(), DefaultCycle)
	}
}

func TestEnqueueUnknownSubscriber(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 10}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	err := s.Enqueue(Request{ID: 1, Subscriber: "ghost"})
	if !errors.Is(err, ErrUnknownSubscriber) {
		t.Errorf("err = %v, want ErrUnknownSubscriber", err)
	}
}

func TestEnqueueDropsAtQueueLimit(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 10, QueueLimit: 3}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	for i := uint64(1); i <= 3; i++ {
		if err := s.Enqueue(Request{ID: i, Subscriber: "a"}); err != nil {
			t.Fatalf("Enqueue %d: %v", i, err)
		}
	}
	err := s.Enqueue(Request{ID: 4, Subscriber: "a"})
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("err = %v, want ErrQueueFull", err)
	}
	if got := s.Dropped("a"); got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
	if got := s.QueueLen("a"); got != 3 {
		t.Errorf("QueueLen = %d, want 3", got)
	}
}

func TestUnderloadedSubscriberFullyServed(t *testing.T) {
	// One subscriber at 40 GRPS offered against a 100 GRPS reservation on a
	// 100 GRPS node: everything must be served, nothing dropped.
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 100}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	node := newFakeNode(1, nodeCap())
	res := runLoop(t, s, []*fakeNode{node},
		map[qos.SubscriberID]float64{"a": 40}, nil, 1000, 200)
	// 800 post-warmup ticks = 8 s at 40/s = 320 requests.
	served := res.served["a"]
	if served < 310 || served > 330 {
		t.Errorf("served = %d, want ≈320", served)
	}
	if res.dropped["a"] != 0 {
		t.Errorf("dropped = %d, want 0", res.dropped["a"])
	}
}

func TestWorkConservationBeyondReservation(t *testing.T) {
	// A single subscriber with a tiny reservation but an idle cluster gets
	// the spare capacity: offered 80 GRPS, reservation 10, node 100 GRPS.
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 10}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	node := newFakeNode(1, nodeCap())
	res := runLoop(t, s, []*fakeNode{node},
		map[qos.SubscriberID]float64{"a": 80}, nil, 1000, 200)
	served := float64(res.served["a"]) / 8.0 // per second
	if served < 75 || served > 85 {
		t.Errorf("served rate = %.1f GRPS, want ≈80 (work conservation)", served)
	}
}

func TestPerformanceIsolationUnderOverload(t *testing.T) {
	// Miniature Table 1: two subscribers on a 100 GRPS node. "vip" reserves
	// 70 and offers 70; "hog" reserves 10 and offers 200. vip must still see
	// ≈70 served; hog absorbs the ≈30 spare and drops the rest.
	s := mustScheduler(t,
		[]qos.Subscriber{
			{ID: "hog", Reservation: 10, QueueLimit: 64},
			{ID: "vip", Reservation: 70, QueueLimit: 64},
		},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	node := newFakeNode(1, nodeCap())
	res := runLoop(t, s, []*fakeNode{node},
		map[qos.SubscriberID]float64{"vip": 70, "hog": 200}, nil, 2000, 500)
	const sec = 15.0 // 1500 post-warmup ticks
	vip := float64(res.served["vip"]) / sec
	hog := float64(res.served["hog"]) / sec
	if vip < 66 || vip > 74 {
		t.Errorf("vip served = %.1f GRPS, want ≈70 despite hog overload", vip)
	}
	if hog < 24 || hog > 36 {
		t.Errorf("hog served = %.1f GRPS, want ≈30 (the spare)", hog)
	}
	if res.dropped["hog"] == 0 {
		t.Error("hog must drop its excess load")
	}
	if res.dropped["vip"] != 0 {
		t.Errorf("vip dropped = %d, want 0", res.dropped["vip"])
	}
}

func TestSpareSharedProportionallyToReservations(t *testing.T) {
	// Miniature Table 2: both subscribers overloaded; spare must split in
	// proportion to reservations (25:20), not input loads.
	s := mustScheduler(t,
		[]qos.Subscriber{
			{ID: "s1", Reservation: 25, QueueLimit: 64},
			{ID: "s2", Reservation: 20, QueueLimit: 64},
		},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	node := newFakeNode(1, nodeCap())
	res := runLoop(t, s, []*fakeNode{node},
		map[qos.SubscriberID]float64{"s1": 80, "s2": 90}, nil, 3000, 500)
	const sec = 25.0
	s1 := float64(res.served["s1"]) / sec
	s2 := float64(res.served["s2"]) / sec
	spare1, spare2 := s1-25, s2-20
	if spare1 <= 0 || spare2 <= 0 {
		t.Fatalf("both must receive spare; got %.1f and %.1f", spare1, spare2)
	}
	ratio := spare1 / spare2
	if math.Abs(ratio-1.25) > 0.15 {
		t.Errorf("spare ratio = %.3f, want ≈1.25 (reservation-proportional, not load-proportional)", ratio)
	}
	total := s1 + s2
	if total < 95 || total > 105 {
		t.Errorf("total served = %.1f GRPS, want ≈100 (full capacity)", total)
	}
}

func TestNodeLoadBalancing(t *testing.T) {
	// Four identical nodes: dispatches must spread nearly evenly.
	nodes := []NodeConfig{
		{ID: 1, Capacity: nodeCap()},
		{ID: 2, Capacity: nodeCap()},
		{ID: 3, Capacity: nodeCap()},
		{ID: 4, Capacity: nodeCap()},
	}
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 300}},
		nodes, Config{})
	fakes := []*fakeNode{
		newFakeNode(1, nodeCap()), newFakeNode(2, nodeCap()),
		newFakeNode(3, nodeCap()), newFakeNode(4, nodeCap()),
	}
	counts := make(map[NodeID]int)
	acc := arrivalAcc{perTick: 300 * s.Cycle().Seconds()}
	var id uint64
	byID := map[NodeID]*fakeNode{1: fakes[0], 2: fakes[1], 3: fakes[2], 4: fakes[3]}
	for tick := 0; tick < 1000; tick++ {
		arrivals := acc.arrive()
		for i := 0; i < arrivals; i++ {
			id++
			if err := s.Enqueue(Request{ID: id, Subscriber: "a"}); err != nil {
				t.Fatalf("Enqueue: %v", err)
			}
		}
		for _, d := range s.Tick() {
			counts[d.Node]++
			byID[d.Node].accept(d.Req.Subscriber, qos.GenericCost())
		}
		for _, n := range fakes {
			if err := s.ReportUsage(n.tick(s.Cycle())); err != nil {
				t.Fatalf("ReportUsage: %v", err)
			}
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("no dispatches")
	}
	for id, c := range counts {
		share := float64(c) / float64(total)
		if math.Abs(share-0.25) > 0.05 {
			t.Errorf("node %d share = %.3f, want ≈0.25", id, share)
		}
	}
}

func twoNodes() []NodeConfig {
	return []NodeConfig{
		{ID: 1, Capacity: nodeCap()},
		{ID: 2, Capacity: nodeCap()},
	}
}

func TestAffinityDispatchesToSameNode(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 1000}},
		twoNodes(), Config{})
	// Few enough requests to fit the preferred node's outstanding bound.
	for i := uint64(1); i <= 4; i++ {
		if err := s.Enqueue(Request{ID: i, Subscriber: "a", Affinity: 42}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	nodes := make(map[NodeID]int)
	for _, d := range s.Tick() {
		nodes[d.Node]++
	}
	if len(nodes) != 1 {
		t.Errorf("affine requests spread across %d nodes, want 1 (%v)", len(nodes), nodes)
	}
}

func TestAffinityFallsBackWhenNodeFull(t *testing.T) {
	// A tiny outstanding window: the preferred node fills after a few
	// requests; the rest must overflow to the other node, not stall.
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 10000, QueueLimit: 4096}},
		twoNodes(), Config{OutstandingWindow: 50 * time.Millisecond})
	for i := uint64(1); i <= 10; i++ {
		if err := s.Enqueue(Request{ID: i, Subscriber: "a", Affinity: 7}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	nodes := make(map[NodeID]int)
	for _, d := range s.Tick() {
		nodes[d.Node]++
	}
	if len(nodes) != 2 {
		t.Errorf("overflow must spill to the second node; got %v", nodes)
	}
	// The preferred node (7 % 2 = 1 → second in sorted order = node 2)
	// takes its bound's worth (5 units) before spilling.
	total := nodes[1] + nodes[2]
	if total != 10 {
		t.Errorf("dispatched %d, want 10", total)
	}
}

func TestDisabledNodeReceivesNoDispatches(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 1000}},
		twoNodes(), Config{})
	if err := s.SetNodeWeight(1, 0); err != nil {
		t.Fatalf("SetNodeWeight: %v", err)
	}
	if s.NodeEnabled(1) {
		t.Error("node 1 must report disabled")
	}
	for i := uint64(1); i <= 4; i++ {
		if err := s.Enqueue(Request{ID: i, Subscriber: "a"}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	for _, d := range s.Tick() {
		if d.Node == 1 {
			t.Fatalf("request %d dispatched to disabled node 1", d.Req.ID)
		}
	}
	// Re-enabled nodes participate again.
	if err := s.SetNodeWeight(1, 1); err != nil {
		t.Fatalf("re-enable: %v", err)
	}
	if !s.NodeEnabled(1) {
		t.Error("node 1 must report enabled")
	}
	if err := s.SetNodeWeight(99, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node = %v, want ErrUnknownNode", err)
	}
}

func TestAllNodesDisabledLeavesRequestsQueued(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 1000}},
		twoNodes(), Config{})
	_ = s.SetNodeWeight(1, 0)
	_ = s.SetNodeWeight(2, 0)
	if err := s.Enqueue(Request{ID: 1, Subscriber: "a"}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	if got := len(s.Tick()); got != 0 {
		t.Errorf("dispatches with all nodes down = %d, want 0", got)
	}
	if got := s.QueueLen("a"); got != 1 {
		t.Errorf("queue length = %d, want 1 (request preserved)", got)
	}
}

func TestAddSubscriberAtRuntime(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 50}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	if err := s.AddSubscriber(qos.Subscriber{ID: "b", Reservation: 30}); err != nil {
		t.Fatalf("AddSubscriber: %v", err)
	}
	if err := s.AddSubscriber(qos.Subscriber{ID: "b", Reservation: 30}); err == nil {
		t.Error("duplicate AddSubscriber must fail")
	}
	if err := s.AddSubscriber(qos.Subscriber{Reservation: 1}); err == nil {
		t.Error("invalid subscriber must be rejected")
	}
	if err := s.Enqueue(Request{ID: 1, Subscriber: "b"}); err != nil {
		t.Fatalf("Enqueue for new subscriber: %v", err)
	}
	ds := s.Tick()
	if len(ds) != 1 || ds[0].Req.Subscriber != "b" {
		t.Errorf("dispatches = %+v, want b's request", ds)
	}
}

func TestRemoveSubscriberReturnsOrphans(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{
			{ID: "a", Reservation: 50},
			{ID: "b", Reservation: 50},
		},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	for i := uint64(1); i <= 3; i++ {
		if err := s.Enqueue(Request{ID: i, Subscriber: "b"}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	orphans, err := s.RemoveSubscriber("b")
	if err != nil {
		t.Fatalf("RemoveSubscriber: %v", err)
	}
	if len(orphans) != 3 {
		t.Errorf("orphans = %d, want 3", len(orphans))
	}
	if err := s.Enqueue(Request{ID: 9, Subscriber: "b"}); !errors.Is(err, ErrUnknownSubscriber) {
		t.Errorf("enqueue after removal = %v, want ErrUnknownSubscriber", err)
	}
	if _, err := s.RemoveSubscriber("b"); !errors.Is(err, ErrUnknownSubscriber) {
		t.Errorf("double removal = %v, want ErrUnknownSubscriber", err)
	}
	// The surviving subscriber still schedules normally.
	if err := s.Enqueue(Request{ID: 10, Subscriber: "a"}); err != nil {
		t.Fatalf("Enqueue a: %v", err)
	}
	if got := len(s.Tick()); got != 1 {
		t.Errorf("dispatches after removal = %d, want 1", got)
	}
}

func TestRemoveSubscriberReleasesNodeCapacity(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{
			{ID: "a", Reservation: 1000},
			{ID: "b", Reservation: 1000},
		},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	// Fill the node's outstanding bound with b's in-flight work.
	for i := uint64(1); i <= 8; i++ {
		if err := s.Enqueue(Request{ID: i, Subscriber: "b"}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	dispatched := len(s.Tick())
	if dispatched == 0 {
		t.Fatal("expected some dispatches")
	}
	before, _ := s.Outstanding(1)
	if before.IsZero() {
		t.Fatal("outstanding must be non-zero with in-flight work")
	}
	if _, err := s.RemoveSubscriber("b"); err != nil {
		t.Fatalf("RemoveSubscriber: %v", err)
	}
	after, _ := s.Outstanding(1)
	if !after.IsZero() {
		t.Errorf("outstanding after removing its only user = %v, want zero", after)
	}
}

func TestReportUsageUnknownNode(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 10}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	err := s.ReportUsage(UsageReport{Node: 99})
	if !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v, want ErrUnknownNode", err)
	}
}

func TestReportUsageIgnoresUnknownSubscriber(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 10}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	err := s.ReportUsage(UsageReport{
		Node: 1,
		BySubscriber: map[qos.SubscriberID]SubscriberUsage{
			"ghost": {Usage: qos.GenericCost(), Completed: 1},
		},
	})
	if err != nil {
		t.Errorf("unknown subscriber in report must be skipped, got %v", err)
	}
}

func TestPredictorConvergesToActualUsage(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 50}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	actual := qos.Vector{CPUTime: 4 * time.Millisecond, DiskTime: 6 * time.Millisecond, NetBytes: 9000}
	for i := 0; i < 50; i++ {
		err := s.ReportUsage(UsageReport{
			Node:  1,
			Total: actual,
			BySubscriber: map[qos.SubscriberID]SubscriberUsage{
				"a": {Usage: actual, Completed: 1},
			},
		})
		if err != nil {
			t.Fatalf("ReportUsage: %v", err)
		}
	}
	got, ok := s.Predicted("a")
	if !ok {
		t.Fatal("Predicted must find subscriber a")
	}
	if math.Abs(float64(got.CPUTime-actual.CPUTime)) > float64(100*time.Microsecond) ||
		math.Abs(float64(got.DiskTime-actual.DiskTime)) > float64(100*time.Microsecond) ||
		math.Abs(float64(got.NetBytes-actual.NetBytes)) > 200 {
		t.Errorf("predicted = %v, want ≈%v", got, actual)
	}
}

func TestIdleCreditCappedAtWindow(t *testing.T) {
	// After a long idle period, the banked balance must be clamped to
	// reservation × CreditWindow — not the whole idle period's credit.
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 50, QueueLimit: 4096}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}},
		Config{CreditWindow: time.Second})
	// 20 s idle: only credit accrues.
	for i := 0; i < 2000; i++ {
		s.Tick()
	}
	got, ok := s.Balance("a")
	if !ok {
		t.Fatal("Balance must find subscriber a")
	}
	want := qos.GRPS(50).PerCycle(time.Second) // 500ms CPU, 500ms disk, 100KB
	if got != want {
		t.Errorf("banked balance after long idle = %v, want clamp %v", got, want)
	}
}

func TestBalanceFloorBoundsDebt(t *testing.T) {
	// Heavy spare usage must not drive the balance arbitrarily negative:
	// the floor is −reservation×CreditWindow so the guarantee recovers
	// within one window after overload ends.
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 50}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}},
		Config{CreditWindow: time.Second})
	huge := qos.GenericCost().Scale(1000)
	for i := 0; i < 20; i++ {
		err := s.ReportUsage(UsageReport{
			Node:  1,
			Total: huge,
			BySubscriber: map[qos.SubscriberID]SubscriberUsage{
				"a": {Usage: huge, Completed: 1000},
			},
		})
		if err != nil {
			t.Fatalf("ReportUsage: %v", err)
		}
	}
	got, _ := s.Balance("a")
	floor := qos.GRPS(50).PerCycle(time.Second).Neg()
	if got != floor {
		t.Errorf("balance after massive usage = %v, want floor %v", got, floor)
	}
}

func TestGateReportedDispatchesWholeQueueWhileBalanceNonNegative(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 1, QueueLimit: 4096}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap().Scale(100)}},
		Config{Gate: GateReported, OutstandingWindow: 10 * time.Second})
	for i := uint64(1); i <= 500; i++ {
		if err := s.Enqueue(Request{ID: i, Subscriber: "a"}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	// Balance starts at zero and one cycle's credit arrives: the reported
	// gate sees a non-negative balance and drains the whole queue at once.
	got := len(s.Tick())
	if got != 500 {
		t.Errorf("reported-gate dispatch = %d, want 500 (whole queue)", got)
	}
	// Now a report lands the debt; the gate must slam shut.
	err := s.ReportUsage(UsageReport{
		Node:  1,
		Total: qos.GenericCost().Scale(500),
		BySubscriber: map[qos.SubscriberID]SubscriberUsage{
			"a": {Usage: qos.GenericCost().Scale(500), Completed: 500},
		},
	})
	if err != nil {
		t.Fatalf("ReportUsage: %v", err)
	}
	for i := uint64(501); i <= 600; i++ {
		if err := s.Enqueue(Request{ID: i, Subscriber: "a"}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	// With a deep debt, the reservation round dispatches nothing; only the
	// spare round (idle cluster) keeps serving — so exclude it by loading
	// the node bound? Here the cluster is idle, so spare will serve; what
	// must hold is that the *reservation* gate is shut, i.e. the balance is
	// negative.
	bal, _ := s.Balance("a")
	if !bal.AnyNegative() {
		t.Errorf("balance after debt = %v, want negative", bal)
	}
}

func TestDeterministicDispatchSequence(t *testing.T) {
	run := func() []uint64 {
		s := mustScheduler(t,
			[]qos.Subscriber{
				{ID: "a", Reservation: 30},
				{ID: "b", Reservation: 60},
			},
			[]NodeConfig{{ID: 1, Capacity: nodeCap()}, {ID: 2, Capacity: nodeCap()}}, Config{})
		nodes := []*fakeNode{newFakeNode(1, nodeCap()), newFakeNode(2, nodeCap())}
		byID := map[NodeID]*fakeNode{1: nodes[0], 2: nodes[1]}
		var ids []uint64
		var id uint64
		for tick := 0; tick < 200; tick++ {
			for i := 0; i < 2; i++ {
				id++
				sub := qos.SubscriberID("a")
				if id%3 == 0 {
					sub = "b"
				}
				_ = s.Enqueue(Request{ID: id, Subscriber: sub})
			}
			for _, d := range s.Tick() {
				ids = append(ids, d.Req.ID)
				byID[d.Node].accept(d.Req.Subscriber, qos.GenericCost())
			}
			for _, nd := range nodes {
				_ = s.ReportUsage(nd.tick(s.Cycle()))
			}
		}
		return ids
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("same inputs must produce identical dispatch sequences")
	}
}

func TestFIFOWithinSubscriber(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 1000}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap().Scale(10)}}, Config{})
	for i := uint64(1); i <= 50; i++ {
		if err := s.Enqueue(Request{ID: i, Subscriber: "a"}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	var got []uint64
	for _, d := range s.Tick() {
		got = append(got, d.Req.ID)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("dispatch order not FIFO: %v", got)
		}
	}
}

func TestDispatchNeverExceedsEnqueued(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir, err := qos.NewDirectory([]qos.Subscriber{
			{ID: "a", Reservation: qos.GRPS(1 + rng.Intn(100)), QueueLimit: 32},
			{ID: "b", Reservation: qos.GRPS(1 + rng.Intn(100)), QueueLimit: 32},
		})
		if err != nil {
			return false
		}
		s, err := New(dir, []NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
		if err != nil {
			return false
		}
		node := newFakeNode(1, nodeCap())
		var enq, disp uint64
		for tick := 0; tick < 100; tick++ {
			for i := 0; i < rng.Intn(4); i++ {
				enq++
				sub := qos.SubscriberID("a")
				if rng.Intn(2) == 0 {
					sub = "b"
				}
				if err := s.Enqueue(Request{ID: enq, Subscriber: sub}); err != nil &&
					!errors.Is(err, ErrQueueFull) {
					return false
				}
			}
			for _, d := range s.Tick() {
				disp++
				node.accept(d.Req.Subscriber, qos.GenericCost())
			}
			if err := s.ReportUsage(node.tick(s.Cycle())); err != nil {
				return false
			}
		}
		queued := s.QueueLen("a") + s.QueueLen("b")
		droppedA := s.Dropped("a")
		droppedB := s.Dropped("b")
		return disp+uint64(queued)+droppedA+droppedB == enq &&
			disp == s.TotalDispatched()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: with two permanently backlogged subscribers of random
// reservations on a saturated node, the spare splits in proportion to the
// reservations (the Table-2 policy), for any reservation pair.
func TestSpareProportionalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r1 := qos.GRPS(10 + rng.Intn(30))
		r2 := qos.GRPS(10 + rng.Intn(30))
		dir, err := qos.NewDirectory([]qos.Subscriber{
			{ID: "s1", Reservation: r1, QueueLimit: 64},
			{ID: "s2", Reservation: r2, QueueLimit: 64},
		})
		if err != nil {
			return false
		}
		s, err := New(dir, []NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
		if err != nil {
			return false
		}
		node := newFakeNode(1, nodeCap())
		served := map[qos.SubscriberID]int{}
		var id uint64
		for tick := 0; tick < 3000; tick++ {
			// Keep both queues saturated.
			for _, sub := range []qos.SubscriberID{"s1", "s2"} {
				for s.QueueLen(sub) < 32 {
					id++
					if err := s.Enqueue(Request{ID: id, Subscriber: sub}); err != nil {
						return false
					}
				}
			}
			for _, d := range s.Tick() {
				node.accept(d.Req.Subscriber, qos.GenericCost())
			}
			rep := node.tick(s.Cycle())
			if tick >= 500 {
				for sub, u := range rep.BySubscriber {
					served[sub] += u.Completed
				}
			}
			if err := s.ReportUsage(rep); err != nil {
				return false
			}
		}
		// Served_i = r_i + spare_i with spare ∝ r_i ⇒ served ratio = r ratio.
		gotRatio := float64(served["s1"]) / float64(served["s2"])
		wantRatio := float64(r1) / float64(r2)
		return gotRatio > wantRatio*0.9 && gotRatio < wantRatio*1.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestOutstandingReleasedByReports(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 100}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	if err := s.Enqueue(Request{ID: 1, Subscriber: "a"}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	ds := s.Tick()
	if len(ds) != 1 {
		t.Fatalf("dispatched %d, want 1", len(ds))
	}
	out, _ := s.Outstanding(1)
	if out.IsZero() {
		t.Error("outstanding must grow on dispatch")
	}
	err := s.ReportUsage(UsageReport{
		Node:  1,
		Total: ds[0].Predicted,
		BySubscriber: map[qos.SubscriberID]SubscriberUsage{
			"a": {Usage: ds[0].Predicted, Completed: 1},
		},
	})
	if err != nil {
		t.Fatalf("ReportUsage: %v", err)
	}
	out, _ = s.Outstanding(1)
	if !out.IsZero() {
		t.Errorf("outstanding after full report = %v, want zero", out)
	}
}

func TestNodesListedDeterministically(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 10}},
		[]NodeConfig{
			{ID: 3, Capacity: nodeCap()},
			{ID: 1, Capacity: nodeCap()},
			{ID: 2, Capacity: nodeCap()},
		}, Config{})
	got := s.Nodes()
	want := []NodeID{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Nodes() = %v, want %v", got, want)
	}
}

func TestQueueLenUnknownSubscriber(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 10}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	if got := s.QueueLen("ghost"); got != 0 {
		t.Errorf("QueueLen(ghost) = %d, want 0", got)
	}
	if got := s.Dropped("ghost"); got != 0 {
		t.Errorf("Dropped(ghost) = %d, want 0", got)
	}
	if _, ok := s.Predicted("ghost"); ok {
		t.Error("Predicted(ghost) must miss")
	}
	if _, ok := s.Outstanding(99); ok {
		t.Error("Outstanding(99) must miss")
	}
}

func TestCancelQueuedRemovesFromFIFO(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 100}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	for id := uint64(1); id <= 3; id++ {
		if err := s.Enqueue(Request{ID: id, Subscriber: "a"}); err != nil {
			t.Fatalf("Enqueue %d: %v", id, err)
		}
	}
	if !s.CancelQueued("a", 2) {
		t.Fatal("CancelQueued(2) = false, want true for a queued request")
	}
	if got := s.QueueLen("a"); got != 2 {
		t.Errorf("QueueLen = %d after cancel, want 2", got)
	}
	if s.CancelQueued("a", 2) {
		t.Error("second CancelQueued(2) must miss")
	}
	if s.CancelQueued("ghost", 1) {
		t.Error("CancelQueued on unknown subscriber must miss")
	}
	// The canceled request must never dispatch; the others keep FIFO order.
	ds := s.Tick()
	var ids []uint64
	for _, d := range ds {
		ids = append(ids, d.Req.ID)
	}
	if !reflect.DeepEqual(ids, []uint64{1, 3}) {
		t.Errorf("dispatched IDs = %v, want [1 3]", ids)
	}
}

func TestReleaseDispatchReclaimsCharge(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 100}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	if err := s.Enqueue(Request{ID: 7, Subscriber: "a"}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	ds := s.Tick()
	if len(ds) != 1 {
		t.Fatalf("dispatched %d, want 1", len(ds))
	}
	if out, _ := s.Outstanding(1); out.IsZero() {
		t.Fatal("outstanding must grow on dispatch")
	}
	if s.ReleaseDispatch("a", 1, 99) {
		t.Error("ReleaseDispatch with wrong request ID must miss")
	}
	if s.ReleaseDispatch("a", 2, 7) {
		t.Error("ReleaseDispatch with unknown node must miss")
	}
	if !s.ReleaseDispatch("a", 1, 7) {
		t.Fatal("ReleaseDispatch = false, want true for an in-flight charge")
	}
	if out, _ := s.Outstanding(1); !out.IsZero() {
		t.Errorf("outstanding after release = %v, want zero", out)
	}
	if s.ReleaseDispatch("a", 1, 7) {
		t.Error("double ReleaseDispatch must miss")
	}
	// A later (empty) accounting report must not go negative or panic.
	if err := s.ReportUsage(UsageReport{Node: 1}); err != nil {
		t.Fatalf("ReportUsage: %v", err)
	}
}

func TestRedispatchMovesChargeToAlternateNode(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 100}},
		[]NodeConfig{
			{ID: 1, Capacity: nodeCap()},
			{ID: 2, Capacity: nodeCap()},
		}, Config{})
	if err := s.Enqueue(Request{ID: 5, Subscriber: "a"}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	ds := s.Tick()
	if len(ds) != 1 {
		t.Fatalf("dispatched %d, want 1", len(ds))
	}
	from := ds[0].Node
	alt, ok := s.Redispatch("a", 5, from)
	if !ok {
		t.Fatal("Redispatch = false, want an alternate node")
	}
	if alt == from {
		t.Fatalf("Redispatch returned the failed node %d", from)
	}
	if out, _ := s.Outstanding(from); !out.IsZero() {
		t.Errorf("failed node outstanding = %v, want zero after redispatch", out)
	}
	if out, _ := s.Outstanding(alt); out.IsZero() {
		t.Error("alternate node must carry the moved charge")
	}
	// The moved charge settles via a normal accounting report on the
	// alternate node.
	err := s.ReportUsage(UsageReport{
		Node: alt,
		BySubscriber: map[qos.SubscriberID]SubscriberUsage{
			"a": {Usage: ds[0].Predicted, Completed: 1},
		},
	})
	if err != nil {
		t.Fatalf("ReportUsage: %v", err)
	}
	if out, _ := s.Outstanding(alt); !out.IsZero() {
		t.Errorf("alternate outstanding after report = %v, want zero", out)
	}
}

func TestRedispatchWithoutAlternateReleasesCharge(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 100}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	if err := s.Enqueue(Request{ID: 5, Subscriber: "a"}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	if got := len(s.Tick()); got != 1 {
		t.Fatalf("dispatched %d, want 1", got)
	}
	if _, ok := s.Redispatch("a", 5, 1); ok {
		t.Fatal("Redispatch with a single node must fail (no alternate)")
	}
	// Even a failed redispatch must reclaim the charge: the caller is
	// about to 502 the request, so nothing will ever complete it.
	if out, _ := s.Outstanding(1); !out.IsZero() {
		t.Errorf("outstanding after failed redispatch = %v, want zero", out)
	}
	if _, ok := s.Redispatch("a", 5, 1); ok {
		t.Error("second Redispatch must miss (charge already gone)")
	}
}

func TestNodeWeightScalesAdmissionBound(t *testing.T) {
	// One node, default 50 ms outstanding window over a 100 GRPS capacity:
	// the full-weight bound admits exactly 5 generic requests per tick.
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 1000}},
		[]NodeConfig{{ID: 1, Capacity: nodeCap()}}, Config{})
	for i := uint64(1); i <= 10; i++ {
		if err := s.Enqueue(Request{ID: i, Subscriber: "a"}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	if err := s.SetNodeWeight(1, 0.4); err != nil {
		t.Fatalf("SetNodeWeight: %v", err)
	}
	if got := len(s.Tick()); got != 2 {
		t.Errorf("dispatches at weight 0.4 = %d, want 2 (bound scaled 5 -> 2)", got)
	}
	// Restoring full weight opens the rest of the bound; the outstanding
	// charge from the first tick still counts against it.
	if err := s.SetNodeWeight(1, 1); err != nil {
		t.Fatalf("SetNodeWeight: %v", err)
	}
	// 5-unit bound minus 2 outstanding, plus one unit the optimistic drain
	// assumes finished during the first cycle.
	if got := len(s.Tick()); got != 4 {
		t.Errorf("dispatches after restoring weight = %d, want 4", got)
	}
}

func TestNodeWeightZeroBehavesLikeDisabled(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 1000}},
		twoNodes(), Config{})
	if err := s.SetNodeWeight(1, 0); err != nil {
		t.Fatalf("SetNodeWeight: %v", err)
	}
	if s.NodeEnabled(1) {
		t.Error("weight-0 node must report disabled")
	}
	for i := uint64(1); i <= 4; i++ {
		if err := s.Enqueue(Request{ID: i, Subscriber: "a"}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	for _, d := range s.Tick() {
		if d.Node == 1 {
			t.Fatalf("request %d dispatched to weight-0 node", d.Req.ID)
		}
	}
	if err := s.SetNodeWeight(1, 1); err != nil {
		t.Fatalf("SetNodeWeight: %v", err)
	}
	if w, ok := s.NodeWeight(1); !ok || w != 1 {
		t.Errorf("weight after SetNodeWeight(1) = %v/%v, want 1", w, ok)
	}
}

func TestSetNodeWeightClampsAndRejectsUnknown(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 100}},
		twoNodes(), Config{})
	if err := s.SetNodeWeight(1, -0.5); err != nil {
		t.Fatalf("SetNodeWeight(-0.5): %v", err)
	}
	if w, _ := s.NodeWeight(1); w != 0 {
		t.Errorf("weight after -0.5 = %v, want clamped 0", w)
	}
	if err := s.SetNodeWeight(1, 7); err != nil {
		t.Fatalf("SetNodeWeight(7): %v", err)
	}
	if w, _ := s.NodeWeight(1); w != 1 {
		t.Errorf("weight after 7 = %v, want clamped 1", w)
	}
	if err := s.SetNodeWeight(99, 1); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node = %v, want ErrUnknownNode", err)
	}
	if _, ok := s.NodeWeight(99); ok {
		t.Error("NodeWeight(99) must report not-found")
	}
}

func TestAffinityRespectsNodeWeight(t *testing.T) {
	s := mustScheduler(t,
		[]qos.Subscriber{{ID: "a", Reservation: 1000}},
		twoNodes(), Config{})
	// Affinity 7 prefers node 2 (7 % 2 = 1 -> second in sorted order).
	if err := s.SetNodeWeight(2, 0); err != nil {
		t.Fatalf("SetNodeWeight: %v", err)
	}
	for i := uint64(1); i <= 4; i++ {
		if err := s.Enqueue(Request{ID: i, Subscriber: "a", Affinity: 7}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	ds := s.Tick()
	if len(ds) == 0 {
		t.Fatal("no dispatches with a healthy fallback node")
	}
	for _, d := range ds {
		if d.Node == 2 {
			t.Fatalf("request %d followed affinity onto a weight-0 node", d.Req.ID)
		}
	}
}
