package main

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

// smokeSize shrinks every workload to a fraction of a second: 16 clients, no
// warm-up, one set-up round, and a layer budget of two milliseconds.
var smokeSize = sizing{clients: 16, warmup: 0, setupRounds: 1, simWarmup: time.Millisecond, layerBudget: 2 * time.Millisecond}

// TestSmoke runs each workload of BENCHMARK.json briefly, untraced and
// traced, and checks that every metric the manifest names is reported once
// with a finite value — so the harness keeps compiling against the public API
// it calls, and the manifest and the code cannot drift apart.
func TestSmoke(t *testing.T) {
	mf, err := loadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	outDir = t.TempDir()
	check := func(t *testing.T, res *result, want []manifestMetric) {
		t.Helper()
		if !res.Correct {
			t.Error("run reported incorrect output")
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics reported, manifest names %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s not reported", m.Name)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("%s = %v", m.Name, got.Value)
			case got.Unit != m.Unit:
				t.Errorf("%s reported in %q, manifest says %q", m.Name, got.Unit, m.Unit)
			}
		}
	}
	for _, w := range mf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runOne(w.Name, 1, 100*time.Millisecond, false, smokeSize)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, mf.EndToEnd)
			for _, m := range mf.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, res.Metrics[m.Name].Value)
				}
			}
			res, err = runOne(w.Name, 1, 100*time.Millisecond, true, smokeSize)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, mf.PerLayer)
		})
	}
}
