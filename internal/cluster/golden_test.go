package cluster

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gage/internal/faults"
	"gage/internal/flightrec"
	"gage/internal/metrics"
	"gage/internal/obs"
	"gage/internal/qos"
	"gage/internal/workload"
)

// updateGolden rewrites testdata/sim_golden.txt from the current behaviour.
// Only ever run it on a commit whose simulator output is the reference.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/sim_golden.txt")

// TestSimGolden pins the simulator's exact output across commits: every
// other test checks tolerances or run-to-run determinism inside one binary,
// so a refactor that shifts an event by one tick on the one-RDN or the
// three-RDN path would pass them all. Rows and counters print unrounded;
// series and logs are pinned by SHA-256.
func TestSimGolden(t *testing.T) {
	var out strings.Builder
	scenarios := []struct {
		name string
		run  func(t *testing.T, w *strings.Builder)
	}{
		{"table1", func(t *testing.T, w *strings.Builder) { goldenRun(t, w, Table1) }},
		{"table2", func(t *testing.T, w *strings.Builder) { goldenRun(t, w, Table2) }},
		{"chaos-crash", func(t *testing.T, w *strings.Builder) {
			goldenObserved(t, w, func(rec *flightrec.Recorder, bus *obs.Bus) Options {
				o := chaosOptions(crashPlan())
				o.Recorder, o.Bus, o.TraceEvery = rec, bus, 16
				return o
			})
		}},
		{"elasticity-drill", func(t *testing.T, w *strings.Builder) {
			goldenObserved(t, w, func(rec *flightrec.Recorder, bus *obs.Bus) Options {
				o := ElasticityDrillOptions(rec)
				o.Bus = bus
				return o
			})
		}},
		{"obs-drill", func(t *testing.T, w *strings.Builder) { goldenObserved(t, w, ObsDrillOptions) }},
		{"rdn-failover-drill", goldenFailoverDrill},
		{"lease-delay-fencing", goldenLeaseDelay},
		// Beyond the acceptance list: the knobs and fault kinds none of the
		// scenarios above turn — front-end cost model, locality dispatch,
		// page caches, unclassifiable traffic, the full fault vocabulary —
		// on one front end and on two.
		{"mixed-one-rdn", func(t *testing.T, w *strings.Builder) {
			goldenRun(t, w, func() (*Result, error) { return Run(goldenMixedOptions()) })
		}},
		{"mixed-two-rdn", func(t *testing.T, w *strings.Builder) {
			res, err := RunFrontier(FrontierOptions{Options: goldenMixedOptions(), RDNCount: 2})
			if err != nil {
				t.Fatal(err)
			}
			dumpFrontier(w, res)
		}},
	}
	for _, sc := range scenarios {
		fmt.Fprintf(&out, "== %s\n", sc.name)
		sc.run(t, &out)
	}

	path := filepath.Join("testdata", "sim_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("simulator output drifted from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("simulator output drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// goldenMixedOptions is a short disk-bound SPECweb99 mix over three tenant
// groups with a stray unclassifiable source, offered about what the
// cluster can serve, run through every node-level
// fault kind.
func goldenMixedOptions() Options {
	model := DefaultRDNModel()
	cost := qos.Vector{CPUTime: time.Millisecond, DiskTime: 4 * time.Millisecond, NetBytes: 6544}
	o := Options{
		NumRPNs:          4,
		RDN:              &model,
		RPNOverhead:      50 * time.Microsecond,
		LocalityDispatch: true,
		CacheEntries:     12,
		Warmup:           time.Second,
		Duration:         9 * time.Second,
		Faults: &faults.Plan{Seed: 1234, Events: []faults.Event{
			{At: 2 * time.Second, Kind: faults.SlowNode, Node: 1, Until: 4 * time.Second, Speed: 0.5},
			{At: 2500 * time.Millisecond, Kind: faults.LinkDegrade, Node: 3, Until: 5 * time.Second, Bandwidth: 0.25, Loss: 0.3},
			{At: 3 * time.Second, Kind: faults.DelayAccounting, Node: 2, Until: 6 * time.Second, Delay: 250 * time.Millisecond},
			{At: 4 * time.Second, Kind: faults.DropAccounting, Node: 4, Until: 5 * time.Second, Loss: 0.5},
			{At: 6 * time.Second, Kind: faults.NodeCrash, Node: 1},
			{At: 8 * time.Second, Kind: faults.NodeRecover, Node: 1},
		}},
	}
	for i := 0; i < 4; i++ {
		id := qos.SubscriberID(fmt.Sprintf("mix%d", i))
		host := fmt.Sprintf("www.mix%d.example", i)
		o.Subscribers = append(o.Subscribers, qos.Subscriber{
			ID: id, Hosts: []string{host}, Reservation: 400, QueueLimit: 64,
			Group: drillGroup(i % 3),
		})
		arr, err := workload.NewPoisson(230, int64(40+i))
		if err != nil {
			panic(err)
		}
		o.Sources = append(o.Sources, workload.Source{
			Subscriber: id,
			Gen:        fixedCost{inner: workload.NewSPECWeb99(host, int64(50+i)), cost: cost},
			Arrivals:   arr,
		})
	}
	o.Sources = append(o.Sources, mustConstSource("stray", "www.stray.example", 20, cost))
	return o
}

func goldenRun(t *testing.T, w *strings.Builder, run func() (*Result, error)) {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	dumpResult(w, res)
}

// goldenObserved runs a one-RDN scenario with a spilling flight recorder
// and event bus attached and pins both logs next to the result.
func goldenObserved(t *testing.T, w *strings.Builder, build func(*flightrec.Recorder, *obs.Bus) Options) {
	t.Helper()
	var cycles, events bytes.Buffer
	rec := flightrec.NewRecorder(flightrec.Config{RingSize: 64, Spill: &cycles})
	bus := obs.NewBus(obs.BusConfig{RingSize: 256, Spill: &events})
	res, err := Run(build(rec, bus))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.SpillErr(); err != nil {
		t.Fatal(err)
	}
	if err := bus.SpillErr(); err != nil {
		t.Fatal(err)
	}
	dumpResult(w, res)
	fmt.Fprintf(w, "cycle-log sha256 %x\n", sha256.Sum256(cycles.Bytes()))
	fmt.Fprintf(w, "event-log sha256 %x\n", sha256.Sum256(events.Bytes()))
}

func goldenFailoverDrill(t *testing.T, w *strings.Builder) {
	t.Helper()
	rep, err := RDNFailoverDrill(FrontierDrillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "victim %d groups %v survivors %v takeover-latency %v\n",
		rep.Victim, rep.VictimGroups, rep.SurvivorGroups, rep.TakeoverLatency)
	dumpFrontier(w, rep.Result)
	var cycles bytes.Buffer
	if err := flightrec.WriteLog(&cycles, rep.MergedRecords()); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "merged-cycle-log sha256 %x\n", sha256.Sum256(cycles.Bytes()))
	// The same drill with one event bus per instance: the merged stream
	// gagetrace would assemble from three front ends' spills.
	_, merged := frontierEventRun(t)
	fmt.Fprintf(w, "merged-event-log sha256 %x\n", sha256.Sum256(merged))
}

func goldenLeaseDelay(t *testing.T, w *strings.Builder) {
	t.Helper()
	opts, victim := leaseDelayFencingOptions(t)
	spills := make([]bytes.Buffer, opts.RDNCount)
	opts.Recorders = make([]*flightrec.Recorder, opts.RDNCount)
	for i := range opts.Recorders {
		opts.Recorders[i] = flightrec.NewRecorder(flightrec.Config{RingSize: 64})
		opts.Recorders[i].SetBus(obs.NewBus(obs.BusConfig{RingSize: 64, Spill: &spills[i]}))
	}
	res, err := RunFrontier(opts)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "victim %d\n", victim)
	dumpFrontier(w, res)
	logs := make([][]obs.Event, len(spills))
	for i := range spills {
		if logs[i], err = obs.ReadLog(&spills[i]); err != nil {
			t.Fatal(err)
		}
	}
	var merged bytes.Buffer
	if err := obs.WriteLog(&merged, obs.MergeLogs(logs...)); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "merged-event-log sha256 %x\n", sha256.Sum256(merged.Bytes()))
}

func dumpRows(w *strings.Builder, rows []SubscriberRow) {
	for _, row := range rows {
		fmt.Fprintf(w, "row %+v\n", row)
	}
}

// seriesSHA hashes every sample of every series in key order.
func seriesSHA[K ~string | ~int](set map[K]*metrics.Series) string {
	keys := make([]K, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%v\n", k)
		for _, s := range set[k].Samples() {
			fmt.Fprintf(h, "%d %v\n", s.T, s.Units)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func dumpResult(w *strings.Builder, r *Result) {
	dumpRows(w, r.Rows)
	fmt.Fprintf(w, "served/s %v rdn-util %v cache-hit %v window %v fault %+v\n",
		r.ServedReqPerSec, r.RDNUtilization, r.CacheHitRate, r.Window, r.Fault)
	fmt.Fprintf(w, "settlement dispatched %d delivered %d reclaimed %d inflight %d balance-violations %d\n",
		r.DispatchedReqs, r.DeliveredReqs, r.ReclaimedReqs, r.InflightAtEnd, r.BalanceViolations)
	fmt.Fprintf(w, "admission admitted %d shed %d queued %d orphaned %d accepted %d rejected %d\n",
		r.AdmittedReqs, r.ShedReqs, r.QueuedAtEnd, r.OrphanedReqs, r.AdmissionAccepted, r.AdmissionRejected)
	for _, o := range r.AdmissionLog {
		fmt.Fprintf(w, "admission-log %+v\n", o)
	}
	fmt.Fprintf(w, "series sha256 %s\n", seriesSHA(r.Series))
	fmt.Fprintf(w, "observed sha256 %s\n", seriesSHA(r.Observed))
	fmt.Fprintf(w, "node-weights sha256 %s\n", seriesSHA(r.NodeWeights))
	fmt.Fprintf(w, "node-dispatches sha256 %s\n", seriesSHA(r.NodeDispatches))
}

func dumpFrontier(w *strings.Builder, r *FrontierResult) {
	dumpRows(w, r.Rows)
	fmt.Fprintf(w, "served/s %v rdn-util %v window %v\n", r.ServedReqPerSec, r.RDNUtilization, r.Window)
	fmt.Fprintf(w, "settlement dispatched %d delivered %d reclaimed %d fenced %d inflight %d balance-violations %d\n",
		r.DispatchedReqs, r.DeliveredReqs, r.ReclaimedReqs, r.FencedReqs, r.InflightAtEnd, r.BalanceViolations)
	fmt.Fprintf(w, "admission admitted %d shed %d refused-dead %d handed-off %d lost-queued %d queued %d\n",
		r.AdmittedReqs, r.ShedReqs, r.RefusedDeadReqs, r.HandedOffReqs, r.LostQueuedReqs, r.QueuedAtEnd)
	for _, ch := range r.Takeovers {
		fmt.Fprintf(w, "takeover %+v\n", ch)
	}
	fmt.Fprintf(w, "series sha256 %s\n", seriesSHA(r.Series))
}
