package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"gage/internal/backend"
	"gage/internal/core"
	"gage/internal/dispatch"
	"gage/internal/qos"
	"gage/internal/workload"
)

// pageSize is the smallest page of the paper's mix: per-request cost
// dominates, so a saving in the request path is not diluted by byte copying.
const pageSize = 512

// numWindows is how many equal windows one measurement is split into; every
// rate, cost and latency metric is the median of the per-window values, so a
// single stall from a noisy neighbour moves one window and not the result.
const numWindows = 6

// setupRounds is how many times the system is built and probed; setup_s is
// the median round.
const setupRounds = 15

// latencyLimit is 2.5 scheduling ticks: a conforming request that does not
// return 200 within it missed its service level.
const latencyLimit = 25 * time.Millisecond

// liveSpec is one live workload: the system's topology and the traffic.
type liveSpec struct {
	name    string
	mode    loopMode
	clients int
	warmup  time.Duration
	subs    []qos.Subscriber
	streams []stream
	// capacity is each of the two backends' per-second capacity.
	capacity qos.Vector
	costs    workload.CostModel
}

func hostOf(id string) string { return "www." + id + ".example" }

// saturationSpec is the topology of both saturation workloads: four
// subscribers whose reservations, and two backends whose capacity, are set
// high enough never to limit, so the request path's own cost is what bounds
// throughput.
func saturationSpec(name string, mode loopMode, clients int) liveSpec {
	spec := liveSpec{
		name:     name,
		mode:     mode,
		clients:  clients,
		warmup:   5 * time.Second,
		capacity: qos.Vector{CPUTime: 1000 * time.Second, DiskTime: 1000 * time.Second, NetBytes: 1 << 40},
	}
	for _, id := range []string{"site1", "site2", "site3", "site4"} {
		spec.subs = append(spec.subs, qos.Subscriber{
			ID: qos.SubscriberID(id), Hosts: []string{hostOf(id)}, Reservation: 50_000, QueueLimit: 4096,
		})
		spec.streams = append(spec.streams, stream{host: hostOf(id), underTest: true})
	}
	return spec
}

// overloadSpec is the paper's Table 1 on live sockets: site1 and site2 offer
// slightly more than they reserve, site3 floods; two backends whose modelled
// capacity sums to ≈786 GRPS and whose cost model charges exactly one
// generic request per page.
func overloadSpec(clients int) liveSpec {
	generic := qos.GenericCost()
	return liveSpec{
		name:    "overload_open",
		mode:    openConn,
		clients: clients,
		warmup:  3 * time.Second,
		subs: []qos.Subscriber{
			{ID: "site1", Hosts: []string{hostOf("site1")}, Reservation: 250, QueueLimit: 128},
			{ID: "site2", Hosts: []string{hostOf("site2")}, Reservation: 150, QueueLimit: 128},
			{ID: "site3", Hosts: []string{hostOf("site3")}, Reservation: 50, QueueLimit: 128},
		},
		streams: []stream{
			{host: hostOf("site1"), rate: 259.4, underTest: true},
			{host: hostOf("site2"), rate: 161.1, underTest: true},
			{host: hostOf("site3"), rate: 1200},
		},
		capacity: generic.Scale(393),
		costs: workload.CostModel{
			CPUFixed:    generic.CPUTime,
			DiskFixed:   generic.DiskTime,
			HeaderBytes: generic.NetBytes - pageSize,
		},
	}
}

// liveSpecs returns the live workloads with the full-size client counts.
func liveSpecs() map[string]liveSpec {
	// Every request waits for the next 10 ms tick, so a closed loop with few
	// clients measures the ticker: 2 clients give exactly 200 req/s, 256 give
	// 256 ÷ (2 ticks) = 12.8 k req/s with the processors a quarter idle. At
	// 512 both saturation workloads are bound by the processors (1024 serves
	// no more), so that is the count.
	const satClients = 512
	// The open loop holds ≈130 requests in flight, nearly all of them the
	// flood's, each waiting ≈190 ms in its full queue. The cap leaves room for
	// the burst a stalled generator sends when it catches up; an arrival past
	// it counts as failed.
	const openCap = 1024
	return map[string]liveSpec{
		"connreq_sat":   saturationSpec("connreq_sat", closedConn, satClients),
		"keepalive_sat": saturationSpec("keepalive_sat", closedKeepAlive, satClients),
		"overload_open": overloadSpec(openCap),
	}
}

// testbed is the system under test, built in-process from the program's
// public constructors: two backends and one dispatcher on loopback.
type testbed struct {
	backends []*backend.Server
	disp     *dispatch.Server
	addr     string
	wg       sync.WaitGroup
	mu       sync.Mutex
	serveErr error
}

// logSink receives the program's operational log. Errors matter (a failing
// accounting poll would skew the run), so they go to stderr, not away.
var logSink io.Writer = os.Stderr

func (tb *testbed) serve(what string, fn func() error) {
	tb.wg.Add(1)
	go func() {
		defer tb.wg.Done()
		if err := fn(); err != nil {
			tb.mu.Lock()
			tb.serveErr = errors.Join(tb.serveErr, fmt.Errorf("%s: %w", what, err))
			tb.mu.Unlock()
		}
	}()
}

// startTestbed builds and starts the system. traced turns on everything the
// dispatcher can record: a lifecycle trace per request, the cycle ring and
// the event bus.
func startTestbed(spec liveSpec, traced bool) (*testbed, error) {
	tb := &testbed{}
	var pool []dispatch.Backend
	for i := 1; i <= 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.close()
			return nil, fmt.Errorf("backend listen: %w", err)
		}
		be := backend.New(backend.Config{Node: core.NodeID(i), Costs: spec.costs})
		tb.backends = append(tb.backends, be)
		tb.serve("backend", func() error { return be.Serve(ln) })
		pool = append(pool, dispatch.Backend{ID: core.NodeID(i), Addr: ln.Addr().String(), Capacity: spec.capacity})
	}
	cfg := dispatch.Config{
		Subscribers: spec.subs,
		Backends:    pool,
		Logger:      log.New(logSink, "gage: ", log.Lmicroseconds),
	}
	if traced {
		cfg.TraceSampleEvery = 1
		cfg.TraceBuffer = 1 << 16
		cfg.CycleRingSize = 1024
		cfg.EventRingSize = 1 << 14
	}
	disp, err := dispatch.New(cfg)
	if err != nil {
		tb.close()
		return nil, fmt.Errorf("dispatch.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.close()
		return nil, fmt.Errorf("dispatcher listen: %w", err)
	}
	tb.disp = disp
	tb.addr = ln.Addr().String()
	tb.serve("dispatcher", func() error { return disp.Serve(ln) })
	return tb, nil
}

// close stops the dispatcher, then the backends, and waits for every serving
// goroutine.
func (tb *testbed) close() error {
	var err error
	if tb.disp != nil {
		err = errors.Join(err, tb.disp.Close())
	}
	for _, be := range tb.backends {
		err = errors.Join(err, be.Close())
	}
	tb.wg.Wait()
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return errors.Join(err, tb.serveErr)
}

// probe sends one request per stream, in order, and requires a 200 with the
// right page each time. It returns how many requests it sent.
func probe(addr string, streams []stream) (int, error) {
	want := pageBody(pageSize)
	buf := make([]byte, 4096+pageSize)
	for _, s := range streams {
		status, body, err := fetch(addr, requestBytes(closedConn, s.host, pageSize), buf)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", s.host, err)
		}
		if status != 200 || !bytes.Equal(body, want) {
			return 0, fmt.Errorf("probe %s: status %d, %d body bytes", s.host, status, len(body))
		}
	}
	return len(streams), nil
}

// setUp builds, starts and probes the system rounds times and keeps the last
// one. The returned durations are each round's construction-to-last-
// probe time; probed is how many probe requests the kept system served.
func setUp(spec liveSpec, n int, traced bool) (tb *testbed, rounds []float64, probed int, err error) {
	for i := 0; i < n; i++ {
		if tb != nil {
			if err := tb.close(); err != nil {
				return nil, nil, 0, fmt.Errorf("set-up round %d: close: %w", i, err)
			}
		}
		begin := time.Now()
		tb, err = startTestbed(spec, traced)
		if err != nil {
			return nil, nil, 0, err
		}
		probed, err = probe(tb.addr, spec.streams)
		if err != nil {
			_ = tb.close()
			return nil, nil, 0, err
		}
		rounds = append(rounds, time.Since(begin).Seconds())
	}
	return tb, rounds, probed, nil
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// liveRun is everything one run of a live workload measured.
type liveRun struct {
	spec     liveSpec
	setup    []float64 // seconds per set-up round
	snaps    []procSnap
	samples  []sample
	phases   []phases
	gotOK    uint64 // 200s the generator received, warm-up included
	probed   int
	stats    dispatch.Stats
	genStart time.Time
	peakInfl int64
	peakGor  int
	twStart  int
	twEnd    int
	problems []string // correctness failures
}

// runLive sets the system up, drives the workload through warm-up and
// numWindows measurement windows, and tears everything down. inspect, when
// set, runs after the traffic stops and before the system is closed.
func runLive(spec liveSpec, seed int64, measure time.Duration, setupRounds int, traced bool, inspect func(*testbed)) (*liveRun, error) {
	run := &liveRun{spec: spec, twStart: timeWaitCount()}
	tb, rounds, probed, err := setUp(spec, setupRounds, traced)
	if err != nil {
		return nil, err
	}
	run.setup, run.probed = rounds, probed
	gen, err := newGenerator(genConfig{
		addr: tb.addr, mode: spec.mode, clients: spec.clients, streams: spec.streams,
		page: pageSize, seed: seed, spans: traced,
	})
	if err != nil {
		_ = tb.close()
		return nil, err
	}

	gorDone := make(chan struct{})
	gorPeak := watchGoroutines(gorDone)
	gen.start(spec.warmup)
	run.genStart = gen.t0
	// The measurement window opens only once the whole warm-up has elapsed:
	// connection-per-request traffic needs it to fill the kernel's
	// TIME_WAIT table to its steady state.
	begin := gen.t0.Add(spec.warmup)
	win := measure / time.Duration(numWindows)
	for i := 0; i <= numWindows; i++ {
		sleepUntil(begin.Add(time.Duration(i) * win))
		run.snaps = append(run.snaps, snapProc())
	}
	gen.halt()
	close(gorDone)
	run.peakGor = <-gorPeak
	run.peakInfl = gen.inflightPeak.Load()
	run.twEnd = timeWaitCount()
	run.samples, run.phases, run.gotOK = gen.collect()
	if inspect != nil {
		inspect(tb)
	}
	if err := tb.close(); err != nil {
		run.problems = append(run.problems, "shutdown: "+err.Error())
	}
	run.stats = tb.disp.Stats()
	run.check()
	return run, nil
}

// watchGoroutines samples the goroutine count until done closes and then
// delivers the peak.
func watchGoroutines(done <-chan struct{}) <-chan int {
	out := make(chan int, 1)
	go func() {
		peak := 0
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			select {
			case <-done:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// check applies the workload's correctness rules.
func (r *liveRun) check() {
	fail := func(format string, args ...any) {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	for _, s := range r.samples {
		if s.status == statusBadBody {
			fail("a 200 response did not carry the %d-byte page requested", pageSize)
			break
		}
	}
	// The dispatcher's books: everything the generator received a 200 for was
	// counted served, and every connection it accepted ended in exactly one
	// counted outcome.
	st := r.stats
	if want := r.gotOK + uint64(r.probed); st.Served != want {
		fail("Stats().Served = %d, generator received %d 200s", st.Served, want)
	}
	if r.spec.mode != closedKeepAlive {
		outcomes := st.Served + st.Rejected + st.Unclassified + st.Errors + st.ShedConns +
			st.Shed + st.NotOwned + st.Fenced + st.HandedOff
		if st.Accepted != outcomes {
			fail("Stats() books do not close: accepted %d, outcomes %d (%+v)", st.Accepted, outcomes, st)
		}
	}
	if st.Errors != 0 || st.Unclassified != 0 {
		fail("dispatcher counted %d relay errors and %d unclassified requests", st.Errors, st.Unclassified)
	}
	if r.spec.mode == openConn {
		// The guarantee: a conforming subscriber is served in full.
		for i, s := range r.spec.streams {
			if !s.underTest {
				continue
			}
			sent, ok := r.streamCounts(i)
			if sent == 0 || float64(ok) < 0.999*float64(sent) {
				fail("conforming stream %s: %d of %d requests served (< 99.9 %%)", s.host, ok, sent)
			}
		}
	}
}

// streamCounts returns how many measured requests a stream sent (capped
// arrivals included) and how many returned 200.
func (r *liveRun) streamCounts(streamIdx int) (sent, ok int) {
	for _, s := range r.samples {
		if int(s.stream) != streamIdx {
			continue
		}
		sent++
		if s.status == 200 {
			ok++
		}
	}
	return sent, ok
}

// attempted and failed count the operations under test over the whole
// measurement.
func (r *liveRun) attempted() (attempted, failed int) {
	for _, s := range r.samples {
		if !r.spec.streams[s.stream].underTest {
			continue
		}
		attempted++
		if s.status != 200 {
			failed++
		}
	}
	return attempted, failed
}

// window is the per-window view of a run.
type window struct {
	seconds   float64
	responses int       // every response received, any stream, any status
	ok        int       // 200s on operations under test
	latMs     []float64 // sorted: due → done of those 200s
	cpuUs     float64   // process CPU in the window
	allocs    float64
	bytes     float64
}

// windows splits the run's samples at the snapshot boundaries. A request
// belongs to the window it completed in.
func (r *liveRun) windows() []window {
	out := make([]window, numWindows)
	edges := make([]int64, len(r.snaps))
	for i, s := range r.snaps {
		edges[i] = int64(s.at.Sub(r.genStart))
	}
	for i := range out {
		a, b := r.snaps[i], r.snaps[i+1]
		out[i].seconds = b.at.Sub(a.at).Seconds()
		out[i].cpuUs = float64(b.cpu-a.cpu) / float64(time.Microsecond)
		out[i].allocs = float64(b.mallocs - a.mallocs)
		out[i].bytes = float64(b.bytes - a.bytes)
	}
	for _, s := range r.samples {
		if s.status == statusCapped {
			continue
		}
		i := sort.Search(len(edges), func(i int) bool { return edges[i] > s.done }) - 1
		if i < 0 || i >= numWindows {
			continue // completed after the last boundary
		}
		w := &out[i]
		w.responses++
		if r.spec.streams[s.stream].underTest && s.status == 200 {
			w.ok++
			w.latMs = append(w.latMs, float64(s.done-s.due)/1e6)
		}
	}
	for i := range out {
		sort.Float64s(out[i].latMs)
	}
	return out
}

// overWindows returns the median over the windows of f.
func overWindows(ws []window, f func(window) float64) float64 {
	vals := make([]float64, 0, len(ws))
	for _, w := range ws {
		vals = append(vals, f(w))
	}
	return median(vals)
}

func perResponse(total float64, w window) float64 {
	if w.responses == 0 {
		return 0
	}
	return total / float64(w.responses)
}

// guaranteeRatio is the minimum over the streams under test of
// served ÷ min(offered, reserved), capped at 1: what a subscriber is owed is
// its reservation, or all it offered when that is less. The closed-loop
// workloads reserve far more than they offer, so for them it is the share of
// requests served.
func (r *liveRun) guaranteeRatio() float64 {
	elapsed := r.snaps[numWindows].at.Sub(r.snaps[0].at).Seconds()
	ratio := 1.0
	for i, s := range r.spec.streams {
		if !s.underTest {
			continue
		}
		sent, ok := r.streamCounts(i)
		if sent == 0 {
			return 0
		}
		owed := float64(sent)
		if reserved := float64(r.spec.subs[i].Reservation) * elapsed; reserved < owed {
			owed = reserved
		}
		if got := float64(ok) / owed; got < ratio {
			ratio = got
		}
	}
	return ratio
}

// printWindows shows the per-window values behind the medians, so a stalled
// window is visible as such.
func (r *liveRun) printWindows() {
	for _, row := range []struct {
		name string
		f    func(window) float64
	}{
		{"throughput_rps", func(w window) float64 { return float64(w.ok) / w.seconds }},
		{"latency_p95_ms", func(w window) float64 { return quantile(w.latMs, 0.95) }},
		{"cpu_us_per_req", func(w window) float64 { return perResponse(w.cpuUs, w) }},
	} {
		fmt.Printf("windows %-16s", row.name)
		for _, w := range r.windows() {
			fmt.Printf(" %10.2f", row.f(w))
		}
		fmt.Println()
	}
}

// endToEnd computes the end-to-end metrics of a live run: the ones that
// repeat whatever the machine's neighbours do.
func (r *liveRun) endToEnd() []metric {
	ws := r.windows()
	return []metric{
		{"setup_s", median(r.setup), "s"},
		{"allocs_per_req", overWindows(ws, func(w window) float64 { return perResponse(w.allocs, w) }), "count"},
		{"alloc_bytes_per_req", overWindows(ws, func(w window) float64 { return perResponse(w.bytes, w) }), "B"},
		{"guarantee_min_ratio", r.guaranteeRatio(), "ratio"},
	}
}

// timings computes the metrics that are times: what a user of the system
// sees first, and what a shared machine cannot hold steady, so they are
// reported without a bound.
func (r *liveRun) timings() []metric {
	ws := r.windows()
	return []metric{
		{"load.throughput_rps", overWindows(ws, func(w window) float64 { return float64(w.ok) / w.seconds }), "1/s"},
		{"load.latency_p50_ms", overWindows(ws, func(w window) float64 { return quantile(w.latMs, 0.50) }), "ms"},
		{"load.latency_p95_ms", overWindows(ws, func(w window) float64 { return quantile(w.latMs, 0.95) }), "ms"},
		{"load.cpu_us_per_req", overWindows(ws, func(w window) float64 { return perResponse(w.cpuUs, w) }), "us"},
	}
}
