package benchkit

import (
	"fmt"
	"testing"

	"gage/internal/core"
	"gage/internal/flightrec"
	"gage/internal/qos"
)

// schedNodes is the cluster width of the scheduler-scale scenario.
const schedNodes = 8

// schedHot is how many subscribers are actively loaded each cycle. The
// point of the scenario is that per-cycle cost tracks this number — the
// working set — and not the directory size, so it stays fixed while the
// total subscriber count sweeps 1k→100k.
const schedHot = 64

// schedPerCycle is how many requests arrive per scheduling cycle: matched to
// the fixture's aggregate drain (8 nodes × 1 generic unit per cycle) so
// queues neither grow nor empty in steady state.
const schedPerCycle = 8

// SchedScale is a prepared scheduler hot-path scenario: a directory of
// Total subscribers of which a fixed small set is continuously loaded, over
// an 8-node cluster, with accounting fed back every cycle from the
// scheduler's own dispatch decisions. One Cycle() is one steady-state
// scheduling cycle; after Warm() it performs no heap allocation, so both
// the per-cycle cost benchmark and the allocs-per-Tick regression gate can
// drive the identical loop.
type SchedScale struct {
	Sched *core.Scheduler
	Total int
	// OnArrival sends the cycle's arrivals through Submit instead of
	// Enqueue — the front ends' path: a request its subscriber's reservation
	// covers is dispatched there and then, the rest wait for the Tick.
	OnArrival bool

	hot    []qos.SubscriberID
	reps   []core.UsageReport // one per node; maps reused across cycles
	nextID uint64
	next   int
}

// NewSchedScale builds the scenario with the given directory size,
// optionally with a flight recorder attached (the recorder's active-only
// cycle records are part of the hot path when enabled).
func NewSchedScale(total int, record bool) (*SchedScale, error) {
	if total < schedHot {
		return nil, fmt.Errorf("benchkit: need at least %d subscribers, got %d", schedHot, total)
	}
	subs := make([]qos.Subscriber, total)
	for i := range subs {
		subs[i] = qos.Subscriber{
			ID:          qos.SubscriberID(fmt.Sprintf("s%06d", i)),
			Reservation: 10,
			QueueLimit:  1024,
		}
	}
	dir, err := qos.NewDirectory(subs)
	if err != nil {
		return nil, err
	}
	nodes := make([]core.NodeConfig, schedNodes)
	for i := range nodes {
		nodes[i] = core.NodeConfig{ID: core.NodeID(i), Capacity: schedNodeCap()}
	}
	sched, err := core.New(dir, nodes, core.Config{})
	if err != nil {
		return nil, err
	}
	if record {
		sched.SetRecorder(flightrec.NewRecorder(flightrec.Config{}))
	}
	sc := &SchedScale{Sched: sched, Total: total}
	sc.hot = make([]qos.SubscriberID, schedHot)
	for i := range sc.hot {
		sc.hot[i] = subs[i].ID
	}
	sc.reps = make([]core.UsageReport, schedNodes)
	for i := range sc.reps {
		sc.reps[i] = core.UsageReport{
			Node:         core.NodeID(i),
			BySubscriber: make(map[qos.SubscriberID]core.SubscriberUsage, schedHot),
		}
	}
	return sc, nil
}

// Cycle runs one scheduling cycle: the cycle's arrivals spread round-robin
// over the hot set, one Tick, and a per-node accounting message completing
// everything dispatched (actual usage = predicted, so the feedback loop is
// in equilibrium and pending charges never accumulate).
func (sc *SchedScale) Cycle() {
	for i := range sc.reps {
		rep := &sc.reps[i]
		rep.Total = qos.Vector{}
		clear(rep.BySubscriber)
	}
	for i := 0; i < schedPerCycle; i++ {
		sc.nextID++
		req := core.Request{ID: sc.nextID, Subscriber: sc.hot[sc.next]}
		// The hot queues never reach their limit in equilibrium.
		if !sc.OnArrival {
			_ = sc.Sched.Enqueue(req)
		} else if d, now, _ := sc.Sched.Submit(req); now {
			sc.complete(&d)
		}
		sc.next++
		if sc.next == len(sc.hot) {
			sc.next = 0
		}
	}
	disp := sc.Sched.Tick()
	for i := range disp {
		sc.complete(&disp[i])
	}
	for i := range sc.reps {
		// Every node is registered; empty reports are valid (idle node).
		_ = sc.Sched.ReportUsage(sc.reps[i])
	}
}

// complete books one dispatch into its node's accounting message.
func (sc *SchedScale) complete(d *core.Dispatch) {
	rep := &sc.reps[int(d.Node)]
	u := rep.BySubscriber[d.Req.Subscriber]
	u.Usage = u.Usage.Add(d.Predicted)
	u.Completed++
	rep.BySubscriber[d.Req.Subscriber] = u
	rep.Total = rep.Total.Add(d.Predicted)
}

// Warm runs enough cycles to reach the allocation-free steady state: queue
// and heap capacities grown, prediction EWMAs settled, and — when a
// recorder is attached — the ring fully populated so record slices are
// recycled rather than first-use allocated.
func (sc *SchedScale) Warm() {
	laps := 2 * flightrec.DefaultRingSize
	for i := 0; i < laps; i++ {
		sc.Cycle()
	}
}

// schedNodeCap is one generic request per 10 ms cycle: 100 GRPS.
func schedNodeCap() qos.Vector {
	return qos.GenericCost().Scale(100)
}

// SchedCost is one measured scheduler-scale configuration.
type SchedCost struct {
	Subs     int
	Recorder bool
	NsPerOp  int64
	Allocs   int64
}

// MeasureSchedScale measures the steady-state per-cycle scheduler cost at
// 1k/10k/100k registered subscribers, recorder off and on — the numbers the
// gagebench CLI prints and make bench-sched gates at 0 allocs/op. Flat
// cost across the sweep is the O(1)-per-decision claim.
func MeasureSchedScale() ([]SchedCost, error) {
	var out []SchedCost
	for _, total := range []int{1_000, 10_000, 100_000} {
		for _, rec := range []bool{false, true} {
			sc, err := NewSchedScale(total, rec)
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
			out = append(out, SchedCost{
				Subs:     total,
				Recorder: rec,
				NsPerOp:  r.NsPerOp(),
				Allocs:   r.AllocsPerOp(),
			})
		}
	}
	return out, nil
}
