package cluster

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"gage/internal/faults"
	"gage/internal/frontier"
	"gage/internal/obs"
	"gage/internal/qos"
	"gage/internal/workload"
)

// frontierTestPopulation builds a small multi-group population with
// constant-rate sources at the given multiple of each reservation.
func frontierTestPopulation(t *testing.T, groups, perGroup int, res qos.GRPS, rateMul float64) ([]qos.Subscriber, []workload.Source) {
	t.Helper()
	generic := qos.GenericCost()
	var subs []qos.Subscriber
	var sources []workload.Source
	for gi := 0; gi < groups; gi++ {
		g := drillGroup(gi)
		for si := 0; si < perGroup; si++ {
			id := qos.SubscriberID(fmt.Sprintf("%s-s%d", g, si))
			host := fmt.Sprintf("%s.example", id)
			subs = append(subs, qos.Subscriber{
				ID:          id,
				Hosts:       []string{host},
				Reservation: res,
				QueueLimit:  256,
				Group:       g,
			})
			sources = append(sources, mustConstSource(id, host, rateMul*float64(res), generic))
		}
	}
	return subs, sources
}

// TestFrontierSingleRDNMatchesRun pins the degenerate-config equivalence:
// with rdnCount=1 the tier harness must reproduce the single-RDN harness
// bit for bit — same per-subscriber rows, same whole-run counters. This is
// what lets the tier replace the old front end without re-baselining every
// golden.
func TestFrontierSingleRDNMatchesRun(t *testing.T) {
	subs, sources := frontierTestPopulation(t, 4, 2, 25, 1.0)
	opts := Options{
		Subscribers: subs,
		Sources:     sources,
		NumRPNs:     3,
		Warmup:      500 * time.Millisecond,
		Duration:    4 * time.Second,
	}
	want, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFrontier(FrontierOptions{Options: opts, RDNCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Takeovers) != 0 {
		t.Errorf("single-RDN tier recorded %d ownership changes, want 0", len(got.Takeovers))
	}
	if got.RefusedDeadReqs != 0 || got.FencedReqs != 0 || got.HandedOffReqs != 0 || got.LostQueuedReqs != 0 {
		t.Errorf("single-RDN tier shows tier-only traffic: refused=%d fenced=%d handedoff=%d lost=%d",
			got.RefusedDeadReqs, got.FencedReqs, got.HandedOffReqs, got.LostQueuedReqs)
	}
	type pair struct {
		name      string
		got, want int
	}
	for _, p := range []pair{
		{"AdmittedReqs", got.AdmittedReqs, want.AdmittedReqs},
		{"ShedReqs", got.ShedReqs, want.ShedReqs},
		{"DispatchedReqs", got.DispatchedReqs, want.DispatchedReqs},
		{"DeliveredReqs", got.DeliveredReqs, want.DeliveredReqs},
		{"ReclaimedReqs", got.ReclaimedReqs, want.ReclaimedReqs},
		{"InflightAtEnd", got.InflightAtEnd, want.InflightAtEnd},
		{"QueuedAtEnd", got.QueuedAtEnd, want.QueuedAtEnd},
		{"BalanceViolations", got.BalanceViolations, want.BalanceViolations},
	} {
		if p.got != p.want {
			t.Errorf("%s: tier %d, single-RDN harness %d", p.name, p.got, p.want)
		}
	}
	if got.ServedReqPerSec != want.ServedReqPerSec {
		t.Errorf("ServedReqPerSec: tier %v, harness %v", got.ServedReqPerSec, want.ServedReqPerSec)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row count: tier %d, harness %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if got.Rows[i] != want.Rows[i] {
			t.Errorf("row %s differs:\n tier    %+v\n harness %+v",
				got.Rows[i].ID, got.Rows[i], want.Rows[i])
		}
	}
}

// TestChaosRDNFailover is the CI chaos drill (make chaos-rdn): kill one of
// three front ends mid-run, recover it later, and assert the whole failover
// story — takeover within one lease interval, exactly-once settlement,
// blast radius bounded to the victim's partition, clean survivors in the
// merged flight-recorder audit — plus run-to-run determinism.
func TestChaosRDNFailover(t *testing.T) {
	rep, err := RDNFailoverDrill(FrontierDrillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.VictimGroups) == 0 {
		t.Fatalf("victim RDN %d owns no groups; drill exercises nothing", rep.Victim)
	}
	if len(rep.SurvivorGroups) == 0 {
		t.Fatalf("victim RDN %d owns every group; no survivors to check", rep.Victim)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	t.Logf("victim=%d groups=%v takeover after %v; refused=%d handedoff=%d fenced=%d lost=%d",
		rep.Victim, rep.VictimGroups, rep.TakeoverLatency,
		rep.Result.RefusedDeadReqs, rep.Result.HandedOffReqs,
		rep.Result.FencedReqs, rep.Result.LostQueuedReqs)

	// The drill is deterministic: same options, same virtual clock, same
	// ownership timeline and books.
	rep2, err := RDNFailoverDrill(FrontierDrillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Result.Takeovers) != len(rep.Result.Takeovers) {
		t.Fatalf("reruns disagree on ownership changes: %d vs %d",
			len(rep.Result.Takeovers), len(rep2.Result.Takeovers))
	}
	for i := range rep.Result.Takeovers {
		if rep.Result.Takeovers[i] != rep2.Result.Takeovers[i] {
			t.Errorf("ownership change %d differs across reruns:\n %+v\n %+v",
				i, rep.Result.Takeovers[i], rep2.Result.Takeovers[i])
		}
	}
	a, b := rep.Result, rep2.Result
	if a.AdmittedReqs != b.AdmittedReqs || a.DeliveredReqs != b.DeliveredReqs ||
		a.FencedReqs != b.FencedReqs || a.RefusedDeadReqs != b.RefusedDeadReqs ||
		a.HandedOffReqs != b.HandedOffReqs || a.LostQueuedReqs != b.LostQueuedReqs {
		t.Errorf("reruns disagree on counters:\n %+v\n %+v", a, b)
	}
}

// leaseDelayLease is the lease interval of the lease-delay fencing scenario.
const leaseDelayLease = 400 * time.Millisecond

// leaseDelayFencingOptions builds the lease-delay fencing scenario and names
// its victim: the owner of the first tenant group, whose heartbeats a
// LeaseDelay window stalls past the lease interval.
func leaseDelayFencingOptions(t *testing.T) (FrontierOptions, int) {
	t.Helper()
	part, err := frontier.NewPartitioner(3)
	if err != nil {
		t.Fatal(err)
	}
	victim := part.Owner(drillGroup(0))
	// Overload every partition 3×: queues are never empty, so the deposed
	// victim still has stale work to dispatch during the delay window.
	subs, sources := frontierTestPopulation(t, 6, 2, 20, 3.0)
	plan := &faults.Plan{Events: []faults.Event{{
		Kind:  faults.LeaseDelay,
		RDN:   victim,
		At:    3 * time.Second,
		Until: 5 * time.Second,
		Delay: 2 * time.Second,
	}}}
	return FrontierOptions{
		Options: Options{
			Subscribers: subs,
			Sources:     sources,
			NumRPNs:     4,
			Warmup:      time.Second,
			Duration:    8 * time.Second,
			Faults:      plan,
		},
		RDNCount:      3,
		LeaseInterval: leaseDelayLease,
	}, victim
}

// TestFrontierLeaseDelayFencing deposes a live front end: a LeaseDelay
// window stalls the victim's heartbeats past the lease interval, a survivor
// takes its partition over, and the deposed-but-alive victim keeps
// dispatching from its stale queues — every such delivery must be refused
// by the epoch fence and its charge reclaimed. When the window lifts, the
// partition hands back.
func TestFrontierLeaseDelayFencing(t *testing.T) {
	const lease = leaseDelayLease
	opts, victim := leaseDelayFencingOptions(t)
	res, err := RunFrontier(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.AdmittedReqs, res.DispatchedReqs+res.QueuedAtEnd+res.LostQueuedReqs; got != want {
		t.Errorf("admission books do not close: admitted %d != dispatched %d + queued %d + lost %d",
			res.AdmittedReqs, res.DispatchedReqs, res.QueuedAtEnd, res.LostQueuedReqs)
	}
	if got, want := res.DispatchedReqs, res.DeliveredReqs+res.ReclaimedReqs+res.FencedReqs+res.InflightAtEnd; got != want {
		t.Errorf("settlement books do not close: dispatched %d != delivered %d + reclaimed %d + fenced %d + inflight %d",
			res.DispatchedReqs, res.DeliveredReqs, res.ReclaimedReqs, res.FencedReqs, res.InflightAtEnd)
	}
	if res.BalanceViolations != 0 {
		t.Errorf("%d balance clamp violations", res.BalanceViolations)
	}
	if res.FencedReqs == 0 {
		t.Error("no dispatches fenced: the deposed owner's stale queue work went unchallenged")
	}
	if res.RefusedDeadReqs != 0 {
		t.Errorf("%d arrivals refused as dead, but the victim never crashed", res.RefusedDeadReqs)
	}
	var sawTakeover, sawHandback bool
	for _, ch := range res.Takeovers {
		if ch.Kind == "takeover" && ch.From == victim {
			sawTakeover = true
			if ch.At <= 3*time.Second || ch.At > 5*time.Second+lease {
				t.Errorf("takeover from deposed victim at %v, want inside the delay window", ch.At)
			}
		}
		if ch.Kind == "handback" && ch.To == victim && sawTakeover {
			sawHandback = true
		}
	}
	if !sawTakeover {
		t.Error("lease delay never cost the victim its partition")
	}
	if !sawHandback {
		t.Error("partition never handed back after the delay window lifted")
	}
	if res.HandedOffReqs == 0 {
		t.Error("no queued requests handed off: migrations shed instead of redispatching")
	}
}

// TestFrontierKnee pins the Figure-6 projection: the saturation knee moves
// right in proportion to the front-end tier size.
func TestFrontierKnee(t *testing.T) {
	m := DefaultRDNModel()
	pts := FrontierKnee(m, []int{1, 2, 4})
	if len(pts) != 3 {
		t.Fatalf("got %d knee points, want 3", len(pts))
	}
	base := pts[0].SatReqPerSec
	if base <= 0 {
		t.Fatalf("non-positive single-RDN saturation rate %v", base)
	}
	for _, p := range pts {
		want := base * float64(p.RDNs)
		if math.Abs(p.SatReqPerSec-want) > 1e-6*want {
			t.Errorf("rdns=%d: knee %v, want %v (linear in tier size)", p.RDNs, p.SatReqPerSec, want)
		}
	}
}

// TestFrontierDrillBlastRadius spot-checks the drill rows directly: every
// dropped or refused request belongs to the victim's partition.
func TestFrontierDrillBlastRadius(t *testing.T) {
	rep, err := RDNFailoverDrill(FrontierDrillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Result.Rows {
		g, _, _ := strings.Cut(string(row.ID), "-")
		onVictim := false
		for _, vg := range rep.VictimGroups {
			if g == vg {
				onVictim = true
			}
		}
		if !onVictim && row.DroppedReqs != 0 {
			t.Errorf("survivor %s dropped %d requests", row.ID, row.DroppedReqs)
		}
	}
}

// TestFrontierSharesRunObservability pins what the tier gained by running
// on Run's loop: span events on Options.Bus with every sampled request
// settled exactly once (served, shed, refused, fenced or reclaimed), the
// RDN-side Observed series, latency histograms and node series — through a
// failover, where requests change hands.
func TestFrontierSharesRunObservability(t *testing.T) {
	opts, _ := leaseDelayFencingOptions(t)
	var spill bytes.Buffer
	opts.Bus = obs.NewBus(obs.BusConfig{RingSize: 64, Spill: &spill})
	opts.TraceEvery = 4
	res, err := RunFrontier(opts)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadLog(&spill)
	if err != nil {
		t.Fatal(err)
	}
	classified, settled := map[obs.TraceID]int{}, map[obs.TraceID]int{}
	outcomes := map[string]int{}
	for _, ev := range evs {
		if ev.Kind != obs.KindSpan {
			continue
		}
		switch ev.Stage {
		case "classify":
			classified[ev.Trace]++
		case obs.StageSettle:
			settled[ev.Trace]++
			outcomes[ev.Detail]++
		}
	}
	if len(classified) == 0 {
		t.Fatal("tier run published no span events")
	}
	for id, n := range settled {
		if n != 1 || classified[id] != 1 {
			t.Errorf("trace %v: classified %d times, settled %d times, want 1 and 1", id, classified[id], n)
		}
	}
	if outcomes["served"] == 0 || outcomes["fenced"] == 0 {
		t.Errorf("settle outcomes %v, want served and fenced requests among them", outcomes)
	}
	for _, row := range res.Rows {
		if res.Observed[row.ID].Len() == 0 {
			t.Errorf("%s: no observed-usage samples on a tier run", row.ID)
		}
		if n := res.LatencyHist[row.ID].Snapshot().Count; n != uint64(row.ServedReqs) {
			t.Errorf("%s: latency histogram holds %d samples, want %d served", row.ID, n, row.ServedReqs)
		}
	}
	if len(res.NodeWeights) != opts.NumRPNs || res.NodeDispatches[1].Len() == 0 {
		t.Errorf("node series missing: %d weight series, %d dispatch samples on node 1",
			len(res.NodeWeights), res.NodeDispatches[1].Len())
	}
}

// TestFrontierRefusesAdmissions: the scripted admission plane mutates one
// scheduler, so a schedule on a tier is an error rather than silently
// dropped.
func TestFrontierRefusesAdmissions(t *testing.T) {
	opts := FrontierOptions{Options: ElasticityDrillOptions(nil), RDNCount: 2}
	if _, err := RunFrontier(opts); err == nil {
		t.Fatal("Admissions with RDNCount 2 must be refused")
	}
	opts.RDNCount = 1
	if _, err := RunFrontier(opts); err != nil {
		t.Fatalf("Admissions on one front end: %v", err)
	}
}
