package benchkit

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"gage/internal/core"
	"gage/internal/flightrec"
	"gage/internal/qos"
)

// hierNodes is the cluster width of the hierarchical-scale scenario.
const hierNodes = 8

// hierGroups is how many subscriber groups (tenant tiers) the registered
// population spreads across, round-robin by index.
const hierGroups = 32

// hierHot is the fixed active-set size: how many distinct subscribers carry
// traffic. The point of the scenario is that per-cycle cost tracks this
// number and the active group count — never the registered population — so
// it stays fixed while the total sweeps 1k→1M.
const hierHot = 100

// hierPerCycle is how many requests arrive per scheduling cycle: 4 generic
// units against the fixture's 8-unit aggregate drain, so the cluster runs at
// 50% utilization and every hot queue drains within its reservation.
const hierPerCycle = 4

// hierSchedLen is the length of the precomputed arrival schedule replayed
// cyclically; a power of two a few laps long keeps the Zipf mix stationary.
const hierSchedLen = 4096

// hierSeed makes the Zipf draws reproducible across runs and machines.
const hierSeed = 20030519

// HierScale is a prepared hierarchical-scheduler scenario: Total registered
// subscribers spread over hierGroups groups, of which a fixed
// Zipf(1.1)-skewed hot set of hierHot subscribers carries all traffic. Hot
// reservations are sized 1.5× each subscriber's arrival share, so queues
// drain every cycle and the steady state neither drops nor grows queues.
// One Cycle() is one scheduling cycle with same-cycle accounting feedback;
// after Warm() it performs no heap allocation.
type HierScale struct {
	Sched *core.Scheduler
	Total int

	hot      []qos.SubscriberID
	schedule []int32 // Zipf-skewed indices into hot, replayed cyclically
	reps     []core.UsageReport
	nextID   uint64
	pos      int
}

// NewHierScale builds the scenario with the given registered population,
// optionally with a flight recorder attached.
func NewHierScale(total int, record bool) (*HierScale, error) {
	if total < hierHot {
		return nil, fmt.Errorf("benchkit: need at least %d subscribers, got %d", hierHot, total)
	}
	// Draw the hot set with Zipf(1.1) skew over the whole population, then
	// the arrival schedule with the same skew over the hot set, all from
	// one seeded source so every run schedules identically.
	r := rand.New(rand.NewSource(hierSeed))
	zpop := rand.NewZipf(r, 1.1, 1, uint64(total-1))
	hotIdx := make([]int, 0, hierHot)
	seen := make(map[int]bool, hierHot)
	for len(hotIdx) < hierHot {
		i := int(zpop.Uint64())
		if !seen[i] {
			seen[i] = true
			hotIdx = append(hotIdx, i)
		}
	}
	zhot := rand.NewZipf(r, 1.1, 1, uint64(hierHot-1))
	schedule := make([]int32, hierSchedLen)
	counts := make([]int, hierHot)
	for i := range schedule {
		k := int32(zhot.Uint64())
		schedule[i] = k
		counts[k]++
	}
	// Reservation sizing: the schedule delivers hierPerCycle generic units
	// per 10 ms cycle, i.e. hierPerCycle×100 GRPS in aggregate. Each hot
	// subscriber reserves 1.5× its share (plus a floor), so the reservation
	// round alone covers its arrivals and short Zipf bursts ride the spare
	// round. Σ reservations ≈ 600 GRPS against 800 GRPS capacity.
	hotRes := make(map[int]qos.GRPS, hierHot)
	for j, i := range hotIdx {
		share := float64(counts[j]) / float64(hierSchedLen)
		res := qos.GRPS(share*float64(hierPerCycle*100)*1.5) + 1
		hotRes[i] = res
	}
	subs := make([]qos.Subscriber, total)
	groupNames := make([]string, hierGroups)
	for g := range groupNames {
		groupNames[g] = fmt.Sprintf("tier%02d", g)
	}
	for i := range subs {
		res, hot := hotRes[i]
		if !hot {
			res = 10
		}
		subs[i] = qos.Subscriber{
			ID:          qos.SubscriberID(fmt.Sprintf("s%07d", i)),
			Reservation: res,
			QueueLimit:  1024,
			Group:       groupNames[i%hierGroups],
		}
	}
	dir, err := qos.NewDirectory(subs)
	if err != nil {
		return nil, err
	}
	nodes := make([]core.NodeConfig, hierNodes)
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
	sc := &HierScale{Sched: sched, Total: total, schedule: schedule}
	sc.hot = make([]qos.SubscriberID, hierHot)
	for j, i := range hotIdx {
		sc.hot[j] = subs[i].ID
	}
	sc.reps = make([]core.UsageReport, hierNodes)
	for i := range sc.reps {
		sc.reps[i] = core.UsageReport{
			Node:         core.NodeID(i),
			BySubscriber: make(map[qos.SubscriberID]core.SubscriberUsage, hierHot),
		}
	}
	return sc, nil
}

// Cycle runs one scheduling cycle: the schedule's next arrivals, one Tick,
// and per-node accounting completing everything dispatched (actual usage =
// predicted, so the feedback loop is in equilibrium).
func (sc *HierScale) Cycle() {
	for i := 0; i < hierPerCycle; i++ {
		sc.nextID++
		// Reservations cover the schedule's rates, so queues never reach
		// their limit.
		_ = sc.Sched.Enqueue(core.Request{ID: sc.nextID, Subscriber: sc.hot[sc.schedule[sc.pos]]})
		sc.pos++
		if sc.pos == len(sc.schedule) {
			sc.pos = 0
		}
	}
	disp := sc.Sched.Tick()
	for i := range sc.reps {
		rep := &sc.reps[i]
		rep.Total = qos.Vector{}
		clear(rep.BySubscriber)
	}
	for i := range disp {
		d := &disp[i]
		rep := &sc.reps[int(d.Node)]
		u := rep.BySubscriber[d.Req.Subscriber]
		u.Usage = u.Usage.Add(d.Predicted)
		u.Completed++
		rep.BySubscriber[d.Req.Subscriber] = u
		rep.Total = rep.Total.Add(d.Predicted)
	}
	for i := range sc.reps {
		_ = sc.Sched.ReportUsage(sc.reps[i])
	}
}

// Warm runs enough cycles to reach the allocation-free steady state: queue,
// heap, and active-list capacities grown, every hot subscriber materialized
// and seen at its peak burst, and — with a recorder — the ring lapped so
// record slices recycle.
func (sc *HierScale) Warm() {
	laps := 2 * flightrec.DefaultRingSize
	if laps < 2*hierSchedLen/hierPerCycle {
		// At least two full schedule replays, so every arrival pattern the
		// measured loop will see has already happened once.
		laps = 2 * hierSchedLen / hierPerCycle
	}
	for i := 0; i < laps; i++ {
		sc.Cycle()
	}
	// Settle the heap: construction of a million-entry directory leaves the
	// collector one cycle behind, and since the steady state allocates
	// nothing, forcing that collection here keeps it out of the measured
	// loop — what remains is scheduling cost, not construction debt.
	runtime.GC()
}

// HierCost is one measured hierarchical-scale configuration.
type HierCost struct {
	Subs     int
	Recorder bool
	NsPerOp  int64
	Allocs   int64
}

// MeasureHierScale measures the steady-state per-cycle cost at 1k/10k/100k/1M
// registered subscribers across 32 groups, recorder off and on — the numbers
// the gagebench CLI prints and make bench-hier gates at 0 allocs/op. Flat
// cost across the sweep is the O(active)-per-cycle claim: the hot set is
// pinned at 100 subscribers while the registered population grows 1000×.
func MeasureHierScale() ([]HierCost, error) {
	var out []HierCost
	for _, total := range []int{1_000, 10_000, 100_000, 1_000_000} {
		for _, rec := range []bool{false, true} {
			sc, err := NewHierScale(total, rec)
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
			out = append(out, HierCost{
				Subs:     total,
				Recorder: rec,
				NsPerOp:  r.NsPerOp(),
				Allocs:   r.AllocsPerOp(),
			})
		}
	}
	return out, nil
}
