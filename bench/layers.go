package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"testing"
	"time"

	"gage/internal/accounting"
	"gage/internal/backend"
	"gage/internal/benchkit"
	"gage/internal/breaker"
	"gage/internal/classify"
	"gage/internal/core"
	"gage/internal/flightrec"
	"gage/internal/httpwire"
	"gage/internal/obs"
	"gage/internal/qos"
	"gage/internal/telemetry"
	"gage/internal/vclock"
)

// The layer measurements time calls into each module's public functions from
// outside, with inputs shaped like the live workloads'. Each is the median of
// layerBatches timed batches; allocations are counted over all of them.
const layerBatches = 5

// sink keeps measured results alive so the compiler cannot drop the calls.
var sink any

// layerTimer measures operations and records one bench-side span per
// measurement.
type layerTimer struct {
	budget time.Duration
	spans  *spanLog
}

// measure times fn and returns its median nanoseconds and its allocations
// per call.
func (lt layerTimer) measure(name string, fn func()) (ns, allocs float64) {
	begin := time.Now()
	// Size a batch to a fifth of the budget.
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t); d >= min(time.Millisecond, lt.budget/layerBatches) || n >= 1<<24 {
			per := float64(d) / float64(n)
			n = int(float64(lt.budget) / layerBatches / per)
			if n < 1 {
				n = 1
			}
			break
		}
		n *= 4
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	perOp := make([]float64, layerBatches)
	for b := range perOp {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		perOp[b] = float64(time.Since(t)) / float64(n)
	}
	runtime.ReadMemStats(&ms)
	lt.spans.layer(name, begin, time.Now(), n*layerBatches)
	return median(perOp), float64(ms.Mallocs-mallocs) / float64(n*layerBatches)
}

// wireFixtures are the bytes the dispatcher and a backend exchange for one
// request of the live workloads.
type wireFixtures struct {
	clientReq  []byte             // as the generator sends it
	relayReq   *httpwire.Request  // as the dispatcher forwards it
	beResponse *httpwire.Response // as a backend answers
	beRespRaw  []byte
}

func newWireFixtures(host string) (wireFixtures, error) {
	fx := wireFixtures{clientReq: requestBytes(closedConn, host, pageSize)}
	req, err := httpwire.ReadRequest(bufio.NewReader(bytes.NewReader(fx.clientReq)))
	if err != nil {
		return fx, fmt.Errorf("fixture request: %w", err)
	}
	req.Header[backend.SubscriberHeader] = "site1"
	req.Header[obs.TraceHeader] = obs.Mint(0, 1).String()
	fx.relayReq = req
	fx.beResponse = &httpwire.Response{
		StatusCode: 200,
		Header: map[string]string{
			"Content-Type":      "text/html",
			backend.UsageHeader: "1070500,250000,912",
			obs.TraceHeader:     obs.Mint(0, 1).String(),
		},
		Body: pageBody(pageSize),
	}
	var buf bytes.Buffer
	if err := fx.beResponse.Write(&buf); err != nil {
		return fx, fmt.Errorf("fixture response: %w", err)
	}
	fx.beRespRaw = buf.Bytes()
	return fx, nil
}

// measureHTTPWire replays the fixture bytes through the four httpwire calls
// the request path makes.
func measureHTTPWire(lt layerTimer, seed int64) ([]metric, error) {
	fx, err := newWireFixtures(hostOf(fmt.Sprintf("site%d", 1+seed%4)))
	if err != nil {
		return nil, err
	}
	rd := bytes.NewReader(nil)
	br := bufio.NewReaderSize(rd, 4096)
	var failed error
	readReqNs, readReqAllocs := lt.measure("httpwire.read_request", func() {
		rd.Reset(fx.clientReq)
		br.Reset(rd)
		req, err := httpwire.ReadRequest(br)
		if err != nil {
			failed = err
		}
		sink = req
	})
	writeReqNs, _ := lt.measure("httpwire.write_request", func() {
		if err := fx.relayReq.Write(io.Discard); err != nil {
			failed = err
		}
	})
	readRespNs, readRespAllocs := lt.measure("httpwire.read_response", func() {
		rd.Reset(fx.beRespRaw)
		br.Reset(rd)
		resp, err := httpwire.ReadResponse(br)
		if err != nil {
			failed = err
		}
		sink = resp
	})
	writeRespNs, _ := lt.measure("httpwire.write_response", func() {
		if err := fx.beResponse.Write(io.Discard); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return nil, fmt.Errorf("httpwire replay: %w", failed)
	}
	return []metric{
		{"httpwire.read_request_ns", readReqNs, "ns"},
		{"httpwire.read_request_allocs", readReqAllocs, "count"},
		{"httpwire.write_request_ns", writeReqNs, "ns"},
		{"httpwire.read_response_ns", readRespNs, "ns"},
		{"httpwire.read_response_allocs", readRespAllocs, "count"},
		{"httpwire.write_response_ns", writeRespNs, "ns"},
	}, nil
}

// schedCosts are the scheduler's per-call costs under the overload_open
// arrival pattern.
type schedCosts struct {
	enqueueNs, tickPerDispatchNs, reportUsageNs, cycleAllocs float64
}

// measureScheduler drives Enqueue, Tick and ReportUsage with the arrivals of
// overload_open — two conforming subscribers and a flood against ≈786 GRPS —
// for the cycles the budget allows, timing each call site.
func measureScheduler(lt layerTimer, rec *flightrec.Recorder) (schedCosts, error) {
	spec := overloadSpec(1)
	dir, err := qos.NewDirectory(spec.subs)
	if err != nil {
		return schedCosts{}, err
	}
	nodes := []core.NodeConfig{{ID: 1, Capacity: spec.capacity}, {ID: 2, Capacity: spec.capacity}}
	sched, err := core.New(dir, nodes, core.Config{})
	if err != nil {
		return schedCosts{}, err
	}
	if rec != nil {
		sched.SetRecorder(rec)
	}
	cost := spec.costs.Cost(pageSize)
	reports := make([]core.UsageReport, len(nodes))
	for i := range reports {
		reports[i] = core.UsageReport{Node: nodes[i].ID, BySubscriber: make(map[qos.SubscriberID]core.SubscriberUsage)}
	}
	owed := make([]float64, len(spec.streams))
	var (
		nextID                         uint64
		enqueues, dispatches, reported int
		enqueueT, tickT, reportT       time.Duration
	)
	cycle := func() {
		t := time.Now()
		for i, s := range spec.streams {
			for owed[i] += s.rate * sched.Cycle().Seconds(); owed[i] >= 1; owed[i]-- {
				nextID++
				enqueues++
				// The flood's queue overflows by design.
				_ = sched.Enqueue(core.Request{ID: nextID, Subscriber: spec.subs[i].ID})
			}
		}
		enqueueT += time.Since(t)
		t = time.Now()
		disp := sched.Tick()
		tickT += time.Since(t)
		dispatches += len(disp)
		for i := range reports {
			reports[i].Total = qos.Vector{}
			clear(reports[i].BySubscriber)
		}
		for _, d := range disp {
			r := &reports[int(d.Node)-1]
			u := r.BySubscriber[d.Req.Subscriber]
			u.Usage = u.Usage.Add(cost)
			u.Completed++
			r.BySubscriber[d.Req.Subscriber] = u
			r.Total = r.Total.Add(cost)
		}
		t = time.Now()
		for i := range reports {
			if err := sched.ReportUsage(reports[i]); err != nil {
				panic(err) // both nodes are registered
			}
			reported++
		}
		reportT += time.Since(t)
	}
	// Past the flight recorder's ring and the credit window, so queues,
	// heaps and record slots have reached their steady capacity.
	for i := 0; i < 2*flightrec.DefaultRingSize; i++ {
		cycle()
	}
	enqueues, dispatches, reported = 0, 0, 0
	enqueueT, tickT, reportT = 0, 0, 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	begin, cycles := time.Now(), 0
	for time.Since(begin) < lt.budget {
		for i := 0; i < 100; i++ {
			cycle()
		}
		cycles += 100
	}
	runtime.ReadMemStats(&ms)
	name := "core.cycle"
	if rec != nil {
		name = "flightrec.cycle"
	}
	lt.spans.layer(name, begin, time.Now(), cycles)
	if dispatches == 0 || enqueues == 0 {
		return schedCosts{}, fmt.Errorf("scheduler fixture dispatched %d of %d requests", dispatches, enqueues)
	}
	return schedCosts{
		enqueueNs:         float64(enqueueT) / float64(enqueues),
		tickPerDispatchNs: float64(tickT) / float64(dispatches),
		reportUsageNs:     float64(reportT) / float64(reported),
		cycleAllocs:       float64(ms.Mallocs-mallocs) / float64(cycles),
	}, nil
}

// measureCore reports the scheduler's costs with the flight recorder off,
// an idle Tick, and the per-dispatch cost with the recorder on.
func measureCore(lt layerTimer) ([]metric, error) {
	off, err := measureScheduler(lt, nil)
	if err != nil {
		return nil, err
	}
	on, err := measureScheduler(lt, flightrec.NewRecorder(flightrec.Config{}))
	if err != nil {
		return nil, err
	}
	spec := overloadSpec(1)
	dir, err := qos.NewDirectory(spec.subs)
	if err != nil {
		return nil, err
	}
	idle, err := core.New(dir, []core.NodeConfig{{ID: 1, Capacity: spec.capacity}}, core.Config{})
	if err != nil {
		return nil, err
	}
	idleNs, _ := lt.measure("core.tick_idle", func() { sink = idle.Tick() })
	return []metric{
		{"core.enqueue_ns", off.enqueueNs, "ns"},
		{"core.tick_ns_per_dispatch", off.tickPerDispatchNs, "ns"},
		{"core.tick_idle_ns", idleNs, "ns"},
		{"core.report_usage_ns", off.reportUsageNs, "ns"},
		{"core.cycle_allocs", off.cycleAllocs, "count"},
		{"flightrec.tick_on_ns_per_dispatch", on.tickPerDispatchNs, "ns"},
	}, nil
}

// measureSmallLayers times the single calls the request path makes into the
// remaining modules.
func measureSmallLayers(lt layerTimer) ([]metric, error) {
	spec := overloadSpec(1)
	dir, err := qos.NewDirectory(spec.subs)
	if err != nil {
		return nil, err
	}
	classifier := classify.NewHostClassifier(dir)
	host, path := spec.streams[0].host, fmt.Sprintf("/static/%d.html", pageSize)
	classifyNs, _ := lt.measure("classify.host", func() {
		id, ok := classifier.Classify(host, path)
		if !ok {
			panic("fixture host did not classify")
		}
		sink = id
	})

	acct := accounting.NewAccountant(1)
	pid := acct.Launch("site1")
	cost := spec.costs.Cost(pageSize)
	chargeNs, _ := lt.measure("accounting.charge_complete", func() {
		// A live, tracked process: neither call can fail.
		_ = acct.Charge(pid, cost)
		_ = acct.CompleteRequest(pid)
	})

	br := breaker.New(breaker.Config{})
	now := time.Now()
	breakerNs, _ := lt.measure("breaker.allow_success", func() {
		if !br.Allow(now) {
			panic("closed breaker refused")
		}
		br.Success(breaker.Relay, now)
	})

	hist := telemetry.NewHistogram()
	var d time.Duration
	histNs, _ := lt.measure("telemetry.hist_record", func() {
		d += 137 * time.Microsecond
		hist.Record(d % (50 * time.Millisecond))
	})

	lifecycle := func(tracer *telemetry.Tracer, id *uint64) {
		*id++
		tr := tracer.Sample(*id)
		tr.SetID(obs.Mint(0, *id))
		tr.SetSubscriber("site1")
		tr.Add(telemetry.StageClassify, 0, "site1")
		tr.Add(telemetry.StageQueue, 0, "")
		tr.Add(telemetry.StageDispatch, 1, "")
		tr.Add(telemetry.StageRelay, 1, "")
		tr.Settle(telemetry.OutcomeServed)
	}
	var offID, onID uint64
	off := telemetry.NewTracer(telemetry.TracerConfig{})
	unsampledNs, _ := lt.measure("telemetry.trace_unsampled", func() { lifecycle(off, &offID) })
	on := telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: 1, Buffer: 4096})
	sampledNs, _ := lt.measure("telemetry.trace_sampled", func() { lifecycle(on, &onID) })

	bus := obs.NewBus(obs.BusConfig{RingSize: 4096})
	ev := obs.Event{Kind: obs.KindSpan, Trace: obs.Mint(0, 1), Sub: "site1", Stage: "relay", Node: 1}
	publishNs, _ := lt.measure("obs.publish", func() { bus.Publish(ev) })

	engine := vclock.NewEngine(time.Time{})
	fired := 0
	step := func() { fired++ }
	vclockNs, _ := lt.measure("vclock.schedule_step", func() {
		engine.After(time.Millisecond, step)
		engine.Step()
	})

	return []metric{
		{"classify.host_ns", classifyNs, "ns"},
		{"accounting.charge_complete_ns", chargeNs, "ns"},
		{"breaker.allow_success_ns", breakerNs, "ns"},
		{"telemetry.hist_record_ns", histNs, "ns"},
		{"telemetry.trace_unsampled_ns", unsampledNs, "ns"},
		{"telemetry.trace_sampled_ns", sampledNs, "ns"},
		{"obs.publish_ns", publishNs, "ns"},
		{"vclock.schedule_step_ns", vclockNs, "ns"},
	}, nil
}

// measureSplice runs the simulator-side Table-3 operations through
// benchkit.MeasureTable3, with its benchmark time cut to the layer budget.
func measureSplice(lt layerTimer) ([]metric, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", lt.budget.String()); err != nil {
		return nil, err
	}
	begin := time.Now()
	ops, err := benchkit.MeasureTable3()
	if err != nil {
		return nil, fmt.Errorf("benchkit.MeasureTable3: %w", err)
	}
	lt.spans.layer("splice.table3", begin, time.Now(), len(ops))
	names := map[string]string{
		"connection setup (RDN)": "splice.rdn_conn_setup_ns",
		"connection setup (RPN)": "splice.rpn_conn_setup_ns",
		"packet forwarding":      "splice.forward_ns",
	}
	var out []metric
	for _, op := range ops {
		if name, ok := names[op.Name]; ok {
			out = append(out, metric{name, float64(op.Measured.Nanoseconds()), "ns"})
		}
	}
	if len(out) != len(names) {
		return nil, fmt.Errorf("benchkit.MeasureTable3 returned %d of the %d operations wanted", len(out), len(names))
	}
	return out, nil
}

// measureBackendDirect aims the generator straight at one backend: the floor
// under every live number. It also times the decoding of the backend's own
// accounting report.
func measureBackendDirect(lt layerTimer, seed int64, size sizing) ([]metric, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("backend listen: %w", err)
	}
	be := backend.New(backend.Config{Node: 1})
	served := make(chan error, 1)
	go func() { served <- be.Serve(ln) }()
	stop := func() error {
		err := be.Close()
		if serr := <-served; err == nil {
			err = serr
		}
		return err
	}

	clients := 64
	if size.clients > 0 {
		clients = size.clients
	}
	gen, err := newGenerator(genConfig{
		addr: ln.Addr().String(), mode: closedConn, clients: clients,
		streams: []stream{{host: hostOf("site1"), underTest: true}}, page: pageSize, seed: seed,
	})
	if err != nil {
		_ = stop()
		return nil, err
	}
	measure := 10 * lt.budget
	warm := measure / 4
	begin := time.Now()
	gen.start(warm)
	sleepUntil(gen.t0.Add(warm))
	a := snapProc()
	sleepUntil(gen.t0.Add(warm + measure))
	b := snapProc()
	gen.halt()
	lt.spans.layer("backend.direct", begin, time.Now(), 0)
	samples, _, _ := gen.collect()

	// The accounting report as the dispatcher's poller fetches it.
	report, err := fetchReport(ln.Addr().String())
	if err == nil {
		_, err = backend.DecodeReport(report)
	}
	if cerr := stop(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("backend direct: %w", err)
	}
	decodeNs, _ := lt.measure("backend.decode_report", func() {
		rep, err := backend.DecodeReport(report)
		if err != nil {
			panic(err) // decoded once above
		}
		sink = rep
	})

	var lat []float64
	edgeA, edgeB := int64(a.at.Sub(gen.t0)), int64(b.at.Sub(gen.t0))
	for _, s := range samples {
		if s.status != 200 {
			return nil, fmt.Errorf("backend direct: a request ended with status %d", s.status)
		}
		if s.done >= edgeA && s.done < edgeB {
			lat = append(lat, float64(s.done-s.due)/1e3)
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("backend direct: no request completed")
	}
	sort.Float64s(lat)
	n := float64(len(lat))
	return []metric{
		{"backend.direct_rps", n / b.at.Sub(a.at).Seconds(), "1/s"},
		{"backend.direct_p50_us", quantile(lat, 0.5), "us"},
		{"backend.direct_cpu_us_per_req", float64(b.cpu-a.cpu) / float64(time.Microsecond) / n, "us"},
		{"backend.direct_allocs_per_req", float64(b.mallocs-a.mallocs) / n, "count"},
		{"backend.decode_report_ns", decodeNs, "ns"},
	}, nil
}

// fetchReport GETs a backend's accounting report.
func fetchReport(addr string) ([]byte, error) {
	request := []byte("GET " + backend.ReportPath + " HTTP/1.0\r\n\r\n")
	status, body, err := fetch(addr, request, make([]byte, 1<<16))
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("report status %d", status)
	}
	return body, nil
}

// measureLayers runs every workload-independent layer measurement.
func measureLayers(seed int64, size sizing, spans *spanLog) ([]metric, error) {
	lt := layerTimer{budget: size.layerBudget, spans: spans}
	var out []metric
	for _, part := range []func() ([]metric, error){
		func() ([]metric, error) { return measureHTTPWire(lt, seed) },
		func() ([]metric, error) { return measureCore(lt) },
		func() ([]metric, error) { return measureSmallLayers(lt) },
		func() ([]metric, error) { return measureSplice(lt) },
		func() ([]metric, error) { return measureBackendDirect(lt, seed, size) },
	} {
		ms, err := part()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// value looks a metric up by name.
func value(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	panic("metric " + name + " was not measured")
}

// layerSumUs adds up, per relayed request, the user-space layer costs measured
// above: what the dispatcher and the backend spend inside the modules, as
// opposed to in the kernel's socket calls, goroutine hand-offs and the
// collector. rps amortizes the accounting poll (ten per second per backend).
func layerSumUs(layers []metric, rps float64) float64 {
	v := func(name string) float64 { return value(layers, name) }
	dispatcher := v("httpwire.read_request_ns") + v("classify.host_ns") + v("core.enqueue_ns") +
		v("core.tick_ns_per_dispatch") + v("breaker.allow_success_ns") + v("httpwire.write_request_ns") +
		v("httpwire.read_response_ns") + v("httpwire.write_response_ns") +
		2*v("telemetry.hist_record_ns") + v("telemetry.trace_unsampled_ns")
	backendSide := v("httpwire.read_request_ns") + v("httpwire.write_response_ns") + v("accounting.charge_complete_ns")
	poll := 0.0
	if rps > 0 {
		poll = 20 * (v("core.report_usage_ns") + v("backend.decode_report_ns") +
			v("httpwire.write_request_ns") + v("httpwire.read_response_ns")) / rps
	}
	return (dispatcher + backendSide + poll) / 1e3
}
