package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gage/internal/core"
	"gage/internal/dispatch"
	"gage/internal/telemetry"
)

// outDir is where a traced run writes its span file, relative to the
// directory the bench is run from (the repository root).
var outDir = filepath.Join("bench", "out")

// maxRequestSpans caps how many requests' spans are written out; the phase
// statistics still cover every request.
const maxRequestSpans = 5000

// spanLine is one bench-side span: a call the bench made into the system,
// timed from outside. Spans of one request share Trace.
type spanLine struct {
	Trace   uint64 `json:"trace,omitempty"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Span    string `json:"span"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Detail  string `json:"detail,omitempty"`
	Ops     int    `json:"ops,omitempty"`
}

// spanLog keeps the run's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	lines  []spanLine
	nextID uint64
}

// workloadSpanID is the root every other span descends from.
const workloadSpanID = 1

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), nextID: workloadSpanID}
}

func (l *spanLog) add(s spanLine) uint64 {
	l.nextID++
	s.ID = l.nextID
	l.lines = append(l.lines, s)
	return s.ID
}

// layer records one layer measurement.
func (l *spanLog) layer(name string, begin, end time.Time, ops int) {
	l.add(spanLine{Parent: workloadSpanID, Span: name, Ops: ops,
		StartNs: int64(begin.Sub(l.origin)), EndNs: int64(end.Sub(l.origin))})
}

// requests records the client-side spans of a run's first requests: the
// request itself and, under it, dial, write, wait (first byte) and read.
func (l *spanLog) requests(run *liveRun) {
	base := int64(run.genStart.Sub(l.origin))
	for i, s := range run.samples {
		if i >= maxRequestSpans || i >= len(run.phases) {
			break
		}
		if s.status == statusCapped {
			continue
		}
		ph := run.phases[i]
		trace := uint64(i + 1)
		req := l.add(spanLine{Trace: trace, Parent: workloadSpanID, Span: "request",
			StartNs: base + s.due, EndNs: base + s.done,
			Detail: fmt.Sprintf("%s status %d", run.spec.streams[s.stream].host, s.status)})
		for _, part := range []struct {
			name       string
			start, end int64
		}{
			{"dial", s.sent, ph.connected},
			{"write", ph.connected, ph.written},
			{"wait", ph.written, ph.firstByte},
			{"read", ph.firstByte, s.done},
		} {
			if part.end < part.start || part.start == 0 {
				continue // the exchange failed before this phase
			}
			l.add(spanLine{Trace: trace, Parent: req, Span: part.name,
				StartNs: base + part.start, EndNs: base + part.end})
		}
	}
}

// write stores the spans as JSON lines under outDir.
func (l *spanLog) write(workload string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	root := spanLine{ID: workloadSpanID, Span: "workload", Detail: workload,
		EndNs: int64(time.Since(l.origin))}
	err = enc.Encode(root)
	for i := 0; err == nil && i < len(l.lines); i++ {
		err = enc.Encode(l.lines[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// dispatchView is what the traced run reads from the dispatcher's own
// accessors once the traffic has stopped.
type dispatchView struct {
	queueWaitMs []float64 // sorted: queue span → dispatch span, operations under test
	relay       telemetry.Snapshot
	request     telemetry.Snapshot
}

func inspectDispatcher(spec liveSpec, view *dispatchView) func(*testbed) {
	underTest := make(map[string]bool)
	for i, s := range spec.streams {
		underTest[string(spec.subs[i].ID)] = s.underTest
	}
	return func(tb *testbed) {
		for _, tr := range tb.disp.Tracer().Traces() {
			if !underTest[tr.Subscriber] {
				continue // the flood waits in a full queue by design
			}
			var queued time.Time
			for _, sp := range tr.Spans {
				switch sp.Stage {
				case telemetry.StageQueue:
					queued = sp.At
				case telemetry.StageDispatch:
					if !queued.IsZero() {
						view.queueWaitMs = append(view.queueWaitMs, float64(sp.At.Sub(queued))/1e6)
					}
				}
			}
		}
		sort.Float64s(view.queueWaitMs)
		relay, request := telemetry.NewHistogram(), telemetry.NewHistogram()
		for id := core.NodeID(1); id <= 2; id++ {
			if h := tb.disp.RelayLatency(id); h != nil {
				relay.Merge(h)
			}
		}
		for _, sub := range spec.subs {
			if h := tb.disp.RequestLatency(sub.ID); h != nil && underTest[string(sub.ID)] {
				request.Merge(h)
			}
		}
		view.relay, view.request = relay.Snapshot(), request.Snapshot()
	}
}

// liveLayers are the per-layer values only a live workload has.
type liveLayers struct {
	view         dispatchView
	stats        dispatch.Stats
	floodRPS     float64
	floodRefused float64
	latePct99Ms  float64
	latP99Ms     float64
	latMaxMs     float64
	within       float64
	connectP50Us float64
	firstByteP50 float64
	inflightPeak float64
	failed       float64
	tracedRatio  float64
	tracedCPUUs  float64
	sumUs        float64
	unexplained  float64
}

// genView derives the generator-side layer values from a run's samples.
func (ll *liveLayers) genView(run *liveRun) {
	var late, lat, connect, first []float64
	var floodSent, floodOK, floodRefused, sent, within int
	for i, s := range run.samples {
		late = append(late, float64(s.sent-s.due)/1e6)
		if !run.spec.streams[s.stream].underTest {
			floodSent++
			switch s.status {
			case 200:
				floodOK++
			case 503:
				floodRefused++
			}
			continue
		}
		sent++
		if s.status != 200 {
			continue
		}
		if i < len(run.phases) {
			connect = append(connect, float64(run.phases[i].connected-s.sent)/1e3)
			first = append(first, float64(run.phases[i].firstByte-run.phases[i].written)/1e6)
		}
		ms := float64(s.done-s.due) / 1e6
		lat = append(lat, ms)
		if ms <= float64(latencyLimit)/1e6 {
			within++
		}
	}
	for _, xs := range [][]float64{late, lat, connect, first} {
		sort.Float64s(xs)
	}
	elapsed := run.snaps[numWindows].at.Sub(run.snaps[0].at).Seconds()
	ll.floodRPS = float64(floodOK) / elapsed
	if floodSent > 0 {
		ll.floodRefused = float64(floodRefused) / float64(floodSent)
	}
	ll.latePct99Ms = quantile(late, 0.99)
	ll.latP99Ms = quantile(lat, 0.99)
	ll.latMaxMs = quantile(lat, 1)
	if sent > 0 {
		ll.within = float64(within) / float64(sent)
	}
	ll.connectP50Us = quantile(connect, 0.5)
	ll.firstByteP50 = quantile(first, 0.5)
	ll.inflightPeak = float64(run.peakInfl)
	_, failed := run.attempted()
	ll.failed = float64(failed)
	fmt.Printf("samples: %d latencies behind the percentiles, %d queue waits, %d relays\n",
		len(lat), len(ll.view.queueWaitMs), ll.view.relay.Count)
}

// metrics lists the live-only per-layer metrics; a nil receiver (the
// simulator workload) reports them all as zero.
func (ll *liveLayers) metrics() []metric {
	if ll == nil {
		ll = &liveLayers{}
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	return []metric{
		{"dispatch.queue_wait_p50_ms", quantile(ll.view.queueWaitMs, 0.5), "ms"},
		{"dispatch.queue_wait_p95_ms", quantile(ll.view.queueWaitMs, 0.95), "ms"},
		{"dispatch.relay_p50_us", us(ll.view.relay.Quantile(0.5)), "us"},
		{"dispatch.relay_p95_us", us(ll.view.relay.Quantile(0.95)), "us"},
		{"dispatch.request_p50_ms", us(ll.view.request.Quantile(0.5)) / 1e3, "ms"},
		{"dispatch.served", float64(ll.stats.Served), "count"},
		{"dispatch.rejected", float64(ll.stats.Rejected), "count"},
		{"dispatch.errors", float64(ll.stats.Errors), "count"},
		{"dispatch.retried", float64(ll.stats.Retried), "count"},
		{"dispatch.abandoned", float64(ll.stats.Abandoned), "count"},
		{"dispatch.flood_served_rps", ll.floodRPS, "1/s"},
		{"dispatch.flood_refused_share", ll.floodRefused, "ratio"},
		{"gen.late_p99_ms", ll.latePct99Ms, "ms"},
		{"gen.latency_p99_ms", ll.latP99Ms, "ms"},
		{"gen.latency_max_ms", ll.latMaxMs, "ms"},
		{"gen.within_25ms_share", ll.within, "ratio"},
		{"gen.connect_p50_us", ll.connectP50Us, "us"},
		{"gen.first_byte_p50_ms", ll.firstByteP50, "ms"},
		{"gen.inflight_peak", ll.inflightPeak, "count"},
		{"gen.failed", ll.failed, "count"},
		{"obs.traced_throughput_ratio", ll.tracedRatio, "ratio"},
		{"obs.traced_cpu_us_per_req", ll.tracedCPUUs, "us"},
		{"layers.sum_us_per_req", ll.sumUs, "us"},
		{"layers.unexplained_share", ll.unexplained, "ratio"},
	}
}

// simLayerMetrics lists the simulator-only per-layer metrics; a nil run (a
// live workload) reports them all as zero.
func simLayerMetrics(run *simRun) []metric {
	var wallMs, dispatches, vsec, allocsPerVsec float64
	if run != nil {
		wallMs = median(run.over(func(r simRep) float64 { return r.wall * 1e3 }))
		dispatches = median(run.over(func(r simRep) float64 { return r.dispatched / r.wall }))
		vsec = median(run.over(func(r simRep) float64 { return r.virtual / r.wall }))
		allocsPerVsec = median(run.over(func(r simRep) float64 { return r.allocs / r.virtual }))
	}
	return []metric{
		{"cluster.table1_wall_ms", wallMs, "ms"},
		{"cluster.dispatches_per_s", dispatches, "1/s"},
		{"cluster.vsec_per_s", vsec, "1/s"},
		{"cluster.allocs_per_vsec", allocsPerVsec, "count"},
	}
}

// runtimeMetrics reports the runtime's own health over a measurement.
func runtimeMetrics(first, last procSnap, peakGoroutines, twStart, twEnd int) []metric {
	share := 0.0
	if cpu := (last.cpu - first.cpu).Seconds(); cpu > 0 {
		share = (last.gcCPU - first.gcCPU) / cpu
	}
	return []metric{
		{"runtime.gc_cpu_share", share, "ratio"},
		{"runtime.goroutines_peak", float64(peakGoroutines), "count"},
		{"runtime.peak_rss_mb", float64(last.maxRSS) / 1024, "MB"},
		{"runtime.tw_at_start", float64(twStart), "count"},
		{"runtime.tw_at_end", float64(twEnd), "count"},
	}
}

// runLiveTraced is the traced run of a live workload: an untraced reference
// first, then the same traffic with every request traced, the cycle ring and
// the event bus on, then the layer measurements. It returns the traced run
// and every per-layer metric, and writes the bench-side spans.
func runLiveTraced(spec liveSpec, seed int64, measure time.Duration, size sizing) (*liveRun, []metric, error) {
	spans := newSpanLog()
	begin := time.Now()
	reference, err := runLive(spec, seed, measure/2, size.setupRounds, false, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced reference: %w", err)
	}
	spans.layer("untraced_reference", begin, time.Now(), len(reference.samples))
	ll := &liveLayers{}
	run, err := runLive(spec, seed, measure, size.setupRounds, true, inspectDispatcher(spec, &ll.view))
	if err != nil {
		return nil, nil, err
	}
	run.problems = append(run.problems, reference.problems...)
	spans.requests(run)
	layers, err := measureLayers(seed, size, spans)
	if err != nil {
		return nil, nil, err
	}

	ll.stats = run.stats
	ll.genView(run)
	// The untraced reference gives the timings; the traced run is set against
	// it, and so is the layer sum, which covers one relayed request.
	ref, traced := reference.timings(), run.timings()
	refCPU, refRPS := value(ref, "load.cpu_us_per_req"), value(ref, "load.throughput_rps")
	ll.tracedCPUUs = value(traced, "load.cpu_us_per_req")
	if refRPS > 0 {
		ll.tracedRatio = value(traced, "load.throughput_rps") / refRPS
	}
	ll.sumUs = layerSumUs(layers, refRPS)
	if refCPU > 0 {
		ll.unexplained = 1 - ll.sumUs/refCPU
	}
	fmt.Printf("tracing overhead: cpu_us_per_req %.1f traced against %.1f untraced; throughput ratio %.3f\n",
		ll.tracedCPUUs, refCPU, ll.tracedRatio)
	fmt.Printf("layer budget: layers.sum_us_per_req %.1f beside cpu_us_per_req %.1f; the rest is kernel socket work, goroutine hand-offs and the collector\n",
		ll.sumUs, refCPU)

	path, err := spans.write(spec.name)
	if err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %s\n", path)
	all := append(ref, layers...)
	all = append(all, ll.metrics()...)
	all = append(all, simLayerMetrics(nil)...)
	all = append(all, runtimeMetrics(run.snaps[0], run.snaps[numWindows], run.peakGor, run.twStart, run.twEnd)...)
	return run, all, nil
}

// simLayers is the traced run of the simulator workload: the repetitions
// already measured plus the layer measurements.
func simLayers(run *simRun, seed int64, size sizing) ([]metric, error) {
	spans := newSpanLog()
	layers, err := measureLayers(seed, size, spans)
	if err != nil {
		return nil, err
	}
	path, err := spans.write("sim_table1")
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %s\n", path)
	all := append(run.timings(), layers...)
	all = append(all, (*liveLayers)(nil).metrics()...)
	all = append(all, simLayerMetrics(run)...)
	all = append(all, runtimeMetrics(run.first, run.last, runtime.NumGoroutine(), timeWaitCount(), timeWaitCount())...)
	return all, nil
}
