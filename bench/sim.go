package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"gage/internal/cluster"
)

// simWarmup is how long untimed Table-1 repetitions run before the
// measurement; the time they take, the last one's overshoot included, is the
// workload's setup_s. A fixed time, not a fixed count: a count would make
// setup_s one more measure of the machine's speed at that minute.
const simWarmup = 3 * time.Second

// table1Goldens are the served GRPS the paper's Table 1 reports and the
// simulator reproduces; a run that serves anything else is wrong, however
// fast.
var table1Goldens = map[string]float64{"site1": 259.4, "site2": 161.1, "site3": 365.5}

// simRep is one repetition of cluster.Table1.
type simRep struct {
	wall       float64 // seconds
	cpuUs      float64
	allocs     float64
	bytes      float64
	delivered  float64 // simulated requests completed, warm-up included
	dispatched float64 // dispatch decisions the scheduler made
	virtual    float64 // virtual seconds simulated
	ratio      float64 // guarantee ratio of the conforming subscribers
}

// simRun is everything one run of sim_table1 measured.
type simRun struct {
	setup    float64 // wall seconds of the untimed repetitions
	reps     []simRep
	first    procSnap // around the measured repetitions
	last     procSnap
	problems []string
}

// table1Rep runs the preset once and checks its result.
func table1Rep() (simRep, []string) {
	before := snapProc()
	res, err := cluster.Table1()
	after := snapProc()
	if err != nil {
		return simRep{}, []string{"cluster.Table1: " + err.Error()}
	}
	rep := simRep{
		wall:       after.at.Sub(before.at).Seconds(),
		cpuUs:      float64(after.cpu-before.cpu) / float64(time.Microsecond),
		allocs:     float64(after.mallocs - before.mallocs),
		bytes:      float64(after.bytes - before.bytes),
		delivered:  float64(res.DeliveredReqs),
		dispatched: float64(res.DispatchedReqs),
		// The preset simulates 10 s of warm-up before its 40 s window.
		virtual: res.Window.Seconds() + 10,
		ratio:   1,
	}
	var problems []string
	for _, row := range res.Rows {
		want, ok := table1Goldens[string(row.ID)]
		if !ok || math.Abs(row.Served-want) > 0.05 {
			problems = append(problems, fmt.Sprintf("%s served %.2f GRPS, Table 1 says %.1f", row.ID, row.Served, want))
		}
		if row.ID == "site3" {
			continue // the flood is owed only what is spare
		}
		owed := math.Min(row.Offered, float64(row.Reservation))
		if got := row.Served / owed; got < rep.ratio {
			rep.ratio = got
		}
	}
	if res.DispatchedReqs != res.DeliveredReqs+res.ReclaimedReqs+res.InflightAtEnd {
		problems = append(problems, fmt.Sprintf("settlement books do not close: dispatched %d, delivered %d + reclaimed %d + in flight %d",
			res.DispatchedReqs, res.DeliveredReqs, res.ReclaimedReqs, res.InflightAtEnd))
	}
	return rep, problems
}

// runSim repeats the Table-1 simulation for the measurement time. The preset
// takes no seed: its arrivals are constant-rate by construction, so every
// seed gives the same inputs.
func runSim(measure, warmup time.Duration) *simRun {
	run := &simRun{}
	note := func(problems []string) {
		if len(run.problems) == 0 {
			run.problems = problems
		}
	}
	for begin := time.Now(); run.setup == 0 || time.Since(begin) < warmup; run.setup = time.Since(begin).Seconds() {
		_, problems := table1Rep()
		note(problems)
	}
	run.first = snapProc()
	for len(run.reps) == 0 || time.Since(run.first.at) < measure {
		rep, problems := table1Rep()
		note(problems)
		run.reps = append(run.reps, rep)
	}
	run.last = snapProc()
	return run
}

func (r *simRun) over(f func(simRep) float64) []float64 {
	vals := make([]float64, 0, len(r.reps))
	for _, rep := range r.reps {
		vals = append(vals, f(rep))
	}
	return vals
}

// per returns the median over the repetitions of a total divided by the
// simulated requests completed.
func (r *simRun) per(total func(simRep) float64) float64 {
	return median(r.over(func(rep simRep) float64 { return total(rep) / rep.delivered }))
}

// endToEnd computes the end-to-end metrics; the request is a simulated
// request.
func (r *simRun) endToEnd() []metric {
	return []metric{
		{"setup_s", r.setup, "s"},
		{"allocs_per_req", r.per(func(rep simRep) float64 { return rep.allocs }), "count"},
		{"alloc_bytes_per_req", r.per(func(rep simRep) float64 { return rep.bytes }), "B"},
		{"guarantee_min_ratio", median(r.over(func(rep simRep) float64 { return rep.ratio })), "ratio"},
	}
}

// timings computes the metrics that are times; the latency is what the
// simulator's user waits for, the wall time of one Table-1 run.
func (r *simRun) timings() []metric {
	wallMs := r.over(func(rep simRep) float64 { return rep.wall * 1e3 })
	sort.Float64s(wallMs)
	return []metric{
		{"load.throughput_rps", median(r.over(func(rep simRep) float64 { return rep.delivered / rep.wall })), "1/s"},
		{"load.latency_p50_ms", quantile(wallMs, 0.50), "ms"},
		{"load.latency_p95_ms", quantile(wallMs, 0.95), "ms"},
		{"load.cpu_us_per_req", r.per(func(rep simRep) float64 { return rep.cpuUs }), "us"},
	}
}
