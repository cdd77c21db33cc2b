// Black-box tier-scale suite: the per-cycle cost benchmark behind
// make bench-frontier and its allocation gate. It lives in package
// frontier_test so it can share the benchkit.FrontierScale fixture with the
// gagebench CLI — both drive the identical steady-state tier cycle.
package frontier_test

import (
	"fmt"
	"testing"

	"gage/internal/benchkit"
)

// BenchmarkFrontierCycle measures one steady-state tier-wide scheduling
// cycle over the fixed 32-group population as the front-end tier widens
// 1→3 instances. Tier-wide cost must stay flat: rendezvous partitioning
// splits the work without adding per-instance overhead, so each RDN's
// share of the cycle is ~1/N of the single-RDN baseline.
func BenchmarkFrontierCycle(b *testing.B) {
	for _, rdns := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("rdns=%d", rdns), func(b *testing.B) {
			sc, err := benchkit.NewFrontierScale(rdns)
			if err != nil {
				b.Fatal(err)
			}
			sc.Warm()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Cycle()
			}
		})
	}
}

// TestFrontierCycleAllocFree gates the partitioned hot path: after warm-up
// a tier-wide cycle at 3 instances — routing, per-instance Tick, and
// accounting feedback — must not allocate.
func TestFrontierCycleAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	sc, err := benchkit.NewFrontierScale(3)
	if err != nil {
		t.Fatal(err)
	}
	sc.Warm()
	if allocs := testing.AllocsPerRun(100, sc.Cycle); allocs != 0 {
		t.Errorf("steady-state tier cycle allocated %.0f objects per run, want 0", allocs)
	}
}
