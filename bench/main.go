// Command bench is the repository's benchmark: the live request path at
// saturation and under overload, and the simulator's speed, measured end to
// end and layer by layer. See README.md beside this file.
//
// With -workload it runs that one workload in this process and prints, as the
// last line of standard output, one JSON object with the run's correctness,
// operation counts and metrics. Without it, it runs every workload listed in
// BENCHMARK.json, each in a child process of its own so that CPU time, heap
// counters and peak RSS are per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload; empty runs every workload of BENCHMARK.json in child processes")
		seed         = flag.Int64("seed", 1, "workload seed: per-client host sequence and per-stream start phase")
		seconds      = flag.Float64("seconds", 0, "measurement time per workload; 0 takes run_seconds from BENCHMARK.json")
		trace        = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		repeat       = flag.Int("repeat", 1, "with no -workload: run the whole set this many times and compare the end-to-end metrics against their bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-repeat n]")
		os.Exit(2)
	}
	if *workloadName == "" {
		os.Exit(runAll(*seed, *seconds, *trace == 1, *repeat))
	}
	if *seconds == 0 {
		fmt.Fprintln(os.Stderr, "bench: -workload needs -seconds")
		os.Exit(2)
	}
	res, err := runOne(*workloadName, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, fullSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// sizing scales a run down for the smoke test; the benchmark proper always
// runs fullSize.
type sizing struct {
	clients     int           // closed loops: 0 keeps each workload's own client count
	warmup      time.Duration // negative keeps each workload's own warm-up
	setupRounds int           // how many times the system is built and probed
	simWarmup   time.Duration
	layerBudget time.Duration // time spent on each layer micro-measurement
}

var fullSize = sizing{warmup: -1, setupRounds: setupRounds, simWarmup: simWarmup, layerBudget: 200 * time.Millisecond}

// runOne runs one workload in this process and prints every metric by name
// and unit.
func runOne(name string, seed int64, measure time.Duration, traced bool, size sizing) (*result, error) {
	printEnv(os.Stdout)
	fmt.Printf("workload %s: seed %d, measuring %.1f s, traced %v\n", name, seed, measure.Seconds(), traced)
	var (
		metrics           []metric
		timings           []metric // untraced runs: printed, not part of the result
		problems          []string
		attempted, failed int
	)
	if name == "sim_table1" {
		run := runSim(measure, size.simWarmup)
		attempted = len(run.reps)
		if len(run.problems) > 0 {
			failed = attempted
		}
		problems = run.problems
		metrics, timings = run.endToEnd(), run.timings()
		if traced {
			timings = nil
			var err error
			if metrics, err = simLayers(run, seed, size); err != nil {
				return nil, err
			}
		}
	} else {
		spec, ok := liveSpecs()[name]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		if size.clients > 0 && spec.mode != openConn {
			// The open loop's client count is its in-flight cap, not its load.
			spec.clients = size.clients
		}
		if size.warmup >= 0 {
			spec.warmup = size.warmup
		}
		fmt.Printf("workload %s: %d clients, %.0f s warm-up, then %d windows of %.2f s\n",
			name, spec.clients, spec.warmup.Seconds(), numWindows, measure.Seconds()/float64(numWindows))
		var (
			run *liveRun
			err error
		)
		if traced {
			run, metrics, err = runLiveTraced(spec, seed, measure, size)
		} else {
			run, err = runLive(spec, seed, measure, size.setupRounds, false, nil)
			if err == nil {
				run.printWindows()
				metrics, timings = run.endToEnd(), run.timings()
			}
		}
		if err != nil {
			return nil, err
		}
		attempted, failed = run.attempted()
		problems = run.problems
	}
	res := &result{
		Correct:   len(problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(metrics)),
	}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is not finite", m.name))
			res.Correct = false
			m.value = 0
		}
		if _, dup := res.Metrics[m.name]; dup {
			return nil, fmt.Errorf("metric %s emitted twice", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
		fmt.Printf("  %-34s %16.6f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range timings {
		fmt.Printf("  %-34s %16.6f %s (no bound: see the traced run)\n", m.name, m.value, m.unit)
	}
	fmt.Printf("operations: attempted %d, succeeded %d, failed %d\n", attempted, attempted-failed, failed)
	for _, p := range problems {
		fmt.Printf("INCORRECT: %s\n", p)
	}
	return res, nil
}
