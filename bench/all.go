package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// manifest is the part of BENCHMARK.json the bench itself reads: which
// workloads to run, for how long, and how far an end-to-end metric may move.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runChild runs one workload in a child process of this binary, passing its
// output through, and returns the result it printed last.
func runChild(exe, workload string, seed int64, seconds float64, traced bool) (*result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Every line but the last is passed through; the last is the result.
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	werr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		fmt.Println(last)
		if werr != nil {
			return nil, fmt.Errorf("workload %s: %w", workload, werr)
		}
		return nil, fmt.Errorf("workload %s: last line is not a result: %w", workload, err)
	}
	return &res, nil
}

// runAll runs every workload of BENCHMARK.json, each in its own child
// process, repeat times over, and prints the end-to-end metrics side by
// side. With two or more repetitions it also checks that the runs agree
// within each metric's bound. It returns the process's exit code.
func runAll(seed int64, seconds float64, traced bool, repeat int) int {
	mf, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if seconds == 0 {
		seconds = float64(mf.RunSeconds)
	}
	code := 0
	// report checks one child's result against the names the manifest lists.
	report := func(what string, res *result, want []manifestMetric) {
		if !res.Correct || res.Failed > 0 {
			code = 1
		}
		for _, m := range want {
			if _, ok := res.Metrics[m.Name]; !ok {
				fmt.Printf("MISSING: %s did not report %s\n", what, m.Name)
				code = 1
			}
		}
	}
	// sets[r][workload] is repetition r's untraced result.
	sets := make([]map[string]*result, repeat)
	for r := range sets {
		sets[r] = make(map[string]*result)
		for _, w := range mf.Workloads {
			fmt.Printf("\n=== %s (set %d of %d) ===\n", w.Name, r+1, repeat)
			res, err := runChild(exe, w.Name, seed, seconds, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			sets[r][w.Name] = res
			report(w.Name, res, mf.EndToEnd)
			if !traced {
				continue
			}
			fmt.Printf("\n=== %s, traced (set %d of %d) ===\n", w.Name, r+1, repeat)
			tres, err := runChild(exe, w.Name, seed, seconds, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			report("traced "+w.Name, tres, mf.PerLayer)
		}
	}

	fmt.Printf("\n=== end-to-end summary (seed %d, %g s per workload) ===\n", seed, seconds)
	for _, w := range mf.Workloads {
		for _, m := range mf.EndToEnd {
			first := sets[0][w.Name].Metrics[m.Name].Value
			line := fmt.Sprintf("%-14s %-20s %14.4f", w.Name, m.Name, first)
			for r := 1; r < repeat; r++ {
				v := sets[r][w.Name].Metrics[m.Name].Value
				ratio := v / first
				verdict := "PASS"
				if !(math.Abs(ratio-1) <= m.Bound) {
					verdict = "FAIL"
					code = 1
				}
				line += fmt.Sprintf(" %14.4f  ratio %.4f  bound %.3f  %s", v, ratio, m.Bound, verdict)
			}
			fmt.Printf("%s %s\n", line, m.Unit)
		}
	}
	return code
}
