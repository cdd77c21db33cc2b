package benchkit

import (
	"fmt"
	"runtime"
	"testing"

	"gage/internal/core"
	"gage/internal/frontier"
	"gage/internal/qos"
)

// frontierGroups matches the tier's golden partition population: 32 tenant
// groups named tier00..tier31.
const frontierGroups = 32

// frontierPerGroup subscribers per group; all carry traffic, so the whole
// tier is active and every instance's cycle does real scheduling work.
const frontierPerGroup = 4

// frontierNodes is the back-end width shared by every instance.
const frontierNodes = 8

// frontierPerCycle arrivals per scheduling cycle across the whole tier: 4
// generic units against the tier-wide 8-unit drain, so every partition runs
// at 50% utilization and queues drain each cycle.
const frontierPerCycle = 4

// FrontierScale is a prepared N-instance front-end tier: the fixed
// 32-group population rendezvous-partitioned across N schedulers, each
// holding its reservation share of every node's capacity. One Cycle() is
// one tier-wide scheduling cycle — arrivals routed to their partition
// owner, every instance ticked, same-cycle accounting fed back per
// instance. After Warm() it performs no heap allocation, so the measured
// number is pure scheduling cost.
//
// The scale-out claim the sweep pins: tier-wide per-cycle cost stays flat
// as RDNs grow (partitioning adds no per-instance overhead), so each
// instance does ~1/N of the single-RDN baseline's work per cycle.
type FrontierScale struct {
	RDNs   int
	Scheds []*core.Scheduler

	subs    []qos.SubscriberID
	ownerOf []int // parallel to subs: owning scheduler index
	reps    [][]core.UsageReport
	nextID  uint64
	pos     int
}

// NewFrontierScale builds the tier with the given instance count.
func NewFrontierScale(rdns int) (*FrontierScale, error) {
	part, err := frontier.NewPartitioner(rdns)
	if err != nil {
		return nil, err
	}
	total := frontierGroups * frontierPerGroup
	subs := make([]qos.Subscriber, 0, total)
	for g := 0; g < frontierGroups; g++ {
		group := fmt.Sprintf("tier%02d", g)
		for s := 0; s < frontierPerGroup; s++ {
			subs = append(subs, qos.Subscriber{
				ID: qos.SubscriberID(fmt.Sprintf("%s-s%d", group, s)),
				// Uniform arrivals: each subscriber's share of the tier's
				// frontierPerCycle×100 GRPS, sized 1.5× so queues drain.
				Reservation: qos.GRPS(1.5*frontierPerCycle*100/float64(total)) + 1,
				QueueLimit:  1024,
				Group:       group,
			})
		}
	}
	sc := &FrontierScale{RDNs: rdns}
	byRDN := make([][]qos.Subscriber, rdns)
	owner := make(map[qos.SubscriberID]int, total)
	var totalRes qos.GRPS
	partRes := make([]qos.GRPS, rdns)
	for _, sub := range subs {
		r := part.Owner(sub.Group) - 1
		byRDN[r] = append(byRDN[r], sub)
		owner[sub.ID] = r
		partRes[r] += sub.Reservation
		totalRes += sub.Reservation
	}
	for r := 0; r < rdns; r++ {
		rdir, err := qos.NewDirectory(byRDN[r])
		if err != nil {
			return nil, err
		}
		share := float64(partRes[r] / totalRes)
		if share <= 0 {
			share = 1.0 / float64(rdns)
		}
		nodes := make([]core.NodeConfig, frontierNodes)
		for i := range nodes {
			c := schedNodeCap()
			if rdns > 1 {
				c = c.Scale(share)
			}
			nodes[i] = core.NodeConfig{ID: core.NodeID(i), Capacity: c}
		}
		s, err := core.New(rdir, nodes, core.Config{})
		if err != nil {
			return nil, err
		}
		sc.Scheds = append(sc.Scheds, s)
	}
	sc.subs = make([]qos.SubscriberID, total)
	sc.ownerOf = make([]int, total)
	for i, sub := range subs {
		sc.subs[i] = sub.ID
		sc.ownerOf[i] = owner[sub.ID]
	}
	sc.reps = make([][]core.UsageReport, rdns)
	for r := range sc.reps {
		sc.reps[r] = make([]core.UsageReport, frontierNodes)
		for i := range sc.reps[r] {
			sc.reps[r][i] = core.UsageReport{
				Node:         core.NodeID(i),
				BySubscriber: make(map[qos.SubscriberID]core.SubscriberUsage, total),
			}
		}
	}
	return sc, nil
}

// Cycle runs one tier-wide scheduling cycle.
func (sc *FrontierScale) Cycle() {
	for i := 0; i < frontierPerCycle; i++ {
		sc.nextID++
		// Reservations cover the uniform arrival rate; queues never fill.
		_ = sc.Scheds[sc.ownerOf[sc.pos]].Enqueue(core.Request{ID: sc.nextID, Subscriber: sc.subs[sc.pos]})
		sc.pos++
		if sc.pos == len(sc.subs) {
			sc.pos = 0
		}
	}
	for r, s := range sc.Scheds {
		disp := s.Tick()
		reps := sc.reps[r]
		for i := range reps {
			reps[i].Total = qos.Vector{}
			clear(reps[i].BySubscriber)
		}
		for i := range disp {
			d := &disp[i]
			rep := &reps[int(d.Node)]
			u := rep.BySubscriber[d.Req.Subscriber]
			u.Usage = u.Usage.Add(d.Predicted)
			u.Completed++
			rep.BySubscriber[d.Req.Subscriber] = u
			rep.Total = rep.Total.Add(d.Predicted)
		}
		for i := range reps {
			_ = s.ReportUsage(reps[i])
		}
	}
}

// Warm reaches the allocation-free steady state: every subscriber
// materialized, queue rings and heap capacities grown to their peak
// occupancy, maps sized.
func (sc *FrontierScale) Warm() {
	// Each subscriber sees one arrival every len(subs)/perCycle cycles, and
	// its queue ring only stops growing after ~130 arrivals (the pop-side
	// compaction threshold), so warm long enough for every ring to get there.
	laps := 160 * len(sc.subs) / frontierPerCycle
	for i := 0; i < laps; i++ {
		sc.Cycle()
	}
	runtime.GC()
}

// FrontierCost is one measured tier width.
type FrontierCost struct {
	RDNs    int
	NsPerOp int64
	// NsPerRDN is NsPerOp/RDNs — each instance's share of the tier cycle.
	NsPerRDN int64
	Allocs   int64
}

// MeasureFrontierScale measures the steady-state tier-wide cycle cost at
// 1, 2 and 3 instances over the same population — the numbers gagebench
// prints and make bench-frontier gates at 0 allocs/op.
func MeasureFrontierScale() ([]FrontierCost, error) {
	var out []FrontierCost
	for _, rdns := range []int{1, 2, 3} {
		sc, err := NewFrontierScale(rdns)
		if err != nil {
			return nil, err
		}
		sc.Warm()
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.Cycle()
			}
		})
		out = append(out, FrontierCost{
			RDNs:     rdns,
			NsPerOp:  r.NsPerOp(),
			NsPerRDN: r.NsPerOp() / int64(rdns),
			Allocs:   r.AllocsPerOp(),
		})
	}
	return out, nil
}
