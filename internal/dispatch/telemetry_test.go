package dispatch

import (
	"bufio"
	"encoding/json"
	"flag"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gage/internal/core"
	"gage/internal/httpwire"
	"gage/internal/qos"
	"gage/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// startTB is startServer for both tests and benchmarks.
func startTB(tb testing.TB, cfg Config) (string, *Server) {
	tb.Helper()
	cfg.Logger = log.New(io.Discard, "", 0)
	srv, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatalf("listen: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	tb.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String(), srv
}

// rawGet issues one HTTP/1.0 request and returns the response.
func rawGet(tb testing.TB, addr, host, path string) (*httpwire.Response, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		tb.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		tb.Fatalf("deadline: %v", err)
	}
	req := &httpwire.Request{Method: "GET", Target: path, Proto: "HTTP/1.0", Host: host}
	if err := req.Write(conn); err != nil {
		return nil, err
	}
	return httpwire.ReadResponse(bufio.NewReader(conn))
}

// scrape fetches an internal endpoint (routing ignores the Host header).
func scrape(tb testing.TB, addr, path string) *httpwire.Response {
	tb.Helper()
	resp, err := rawGet(tb, addr, "scrape.internal", path)
	if err != nil {
		tb.Fatalf("scrape %s: %v", path, err)
	}
	return resp
}

// waitTrace polls the tracer until a settled trace with the outcome shows up.
func waitTrace(tb testing.TB, srv *Server, outcome telemetry.Outcome) telemetry.Trace {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, tr := range srv.Tracer().Traces() {
			if telemetry.SettledOutcome(tr) == outcome {
				return tr
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	var got []telemetry.Outcome
	for _, tr := range srv.Tracer().Traces() {
		got = append(got, telemetry.SettledOutcome(tr))
	}
	tb.Fatalf("no trace settled %q; have %v", outcome, got)
	return telemetry.Trace{}
}

// assertStages checks a trace's exact stage sequence and validity.
func assertStages(tb testing.TB, tr telemetry.Trace, want ...telemetry.Stage) {
	tb.Helper()
	if err := telemetry.Validate(tr); err != nil {
		tb.Errorf("trace %d invalid: %v", tr.ReqID, err)
	}
	got := telemetry.Stages(tr)
	if len(got) != len(want) {
		tb.Fatalf("trace %d stages = %v, want %v", tr.ReqID, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			tb.Fatalf("trace %d stages = %v, want %v", tr.ReqID, got, want)
		}
	}
}

// TestTraceServed: the happy path leaves a complete ordered trace —
// classify, queue, dispatch, relay, one terminal settle — labeled with the
// subscriber and the serving node.
func TestTraceServed(t *testing.T) {
	addr, srv := startTB(t, Config{
		Subscribers:      defaultSubs(),
		Backends:         []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		TraceSampleEvery: 1,
	})
	resp, err := rawGet(t, addr, "www.site1.example", "/static/512.html")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	tr := waitTrace(t, srv, telemetry.OutcomeServed)
	assertStages(t, tr,
		telemetry.StageClassify, telemetry.StageQueue, telemetry.StageDispatch,
		telemetry.StageRelay, telemetry.StageSettle)
	if tr.Subscriber != "site1" {
		t.Errorf("subscriber = %q, want site1", tr.Subscriber)
	}
	for _, sp := range tr.Spans {
		if (sp.Stage == telemetry.StageDispatch || sp.Stage == telemetry.StageRelay) && sp.Node != 1 {
			t.Errorf("%v span node = %d, want 1", sp.Stage, sp.Node)
		}
	}
	// Served latency was recorded for the subscriber.
	if snap := srv.RequestLatency("site1").Snapshot(); snap.Count != 1 {
		t.Errorf("request latency count = %d, want 1", snap.Count)
	}
	if snap := srv.RelayLatency(1).Snapshot(); snap.Count != 1 {
		t.Errorf("relay latency count = %d, want 1", snap.Count)
	}
}

// TestTraceRetriedThenServed: a dial failure against the first dispatched
// node adds a retry span with the alternate node, and the trace still ends
// served.
func TestTraceRetriedThenServed(t *testing.T) {
	good := liveBackend(t, 2)
	// Node 1's address accepts nothing: the scheduler's first dispatch (the
	// rotating tie-break starts at node 1) fails at dial and redispatches.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dead := deadLn.Addr().String()
	deadLn.Close()
	addr, srv := startTB(t, Config{
		Subscribers: defaultSubs(),
		Backends:    []Backend{{ID: 1, Addr: dead}, {ID: 2, Addr: good}},
		// Accounting polls also dial node 1 and fail; keep them (and the
		// breaker trips they would cause) out of this test's window.
		AcctCycle:        time.Minute,
		RetryBackoff:     5 * time.Millisecond,
		TraceSampleEvery: 1,
	})
	resp, err := rawGet(t, addr, "www.site1.example", "/static/512.html")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	tr := waitTrace(t, srv, telemetry.OutcomeServed)
	assertStages(t, tr,
		telemetry.StageClassify, telemetry.StageQueue, telemetry.StageDispatch,
		telemetry.StageRelay, telemetry.StageRetry, telemetry.StageSettle)
	for _, sp := range tr.Spans {
		if sp.Stage == telemetry.StageRetry && sp.Node != 2 {
			t.Errorf("retry span node = %d, want alternate 2", sp.Node)
		}
	}
	if srv.Stats().Retried != 1 {
		t.Errorf("retried = %d, want 1", srv.Stats().Retried)
	}
}

// TestTraceQueueTimeout: a request the scheduler never dispatches settles
// queue-timeout after classify and queue — no dispatch or relay spans.
func TestTraceQueueTimeout(t *testing.T) {
	addr, srv := startTB(t, Config{
		Subscribers:      defaultSubs(),
		Backends:         []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		QueueTimeout:     40 * time.Millisecond,
		TraceSampleEvery: 1,
	})
	defer park(srv)()
	resp, err := rawGet(t, addr, "www.site1.example", "/static/512.html")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	tr := waitTrace(t, srv, telemetry.OutcomeQueueTimeout)
	assertStages(t, tr, telemetry.StageClassify, telemetry.StageQueue, telemetry.StageSettle)
}

// TestTraceRejectedAndUnclassified: a queue-overflow 503 settles rejected
// right after classify; an unknown host settles unclassified.
func TestTraceRejectedAndUnclassified(t *testing.T) {
	subs := []qos.Subscriber{
		{ID: "tiny", Hosts: []string{"tiny.example"}, Reservation: 1, QueueLimit: 1},
	}
	addr, srv := startTB(t, Config{
		Subscribers:      subs,
		Backends:         []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		QueueTimeout:     2 * time.Second,
		TraceSampleEvery: 1,
	})
	// First request fills the queue (limit 1) and is parked there.
	release := park(srv)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = rawGet(t, addr, "tiny.example", "/x")
	}()
	waitQueued(t, srv, "tiny")
	// Second request overflows the queue.
	if resp, err := rawGet(t, addr, "tiny.example", "/x"); err != nil || resp.StatusCode != 503 {
		t.Fatalf("against a full queue: resp=%+v err=%v, want 503", resp, err)
	}
	release()
	tr := waitTrace(t, srv, telemetry.OutcomeRejected)
	assertStages(t, tr, telemetry.StageClassify, telemetry.StageSettle)
	if tr.Subscriber != "tiny" {
		t.Errorf("subscriber = %q, want tiny", tr.Subscriber)
	}

	if resp, err := rawGet(t, addr, "www.nope.example", "/x"); err != nil || resp.StatusCode != 404 {
		t.Fatalf("unclassified get: resp=%+v err=%v", resp, err)
	}
	tr = waitTrace(t, srv, telemetry.OutcomeUnclassified)
	assertStages(t, tr, telemetry.StageClassify, telemetry.StageSettle)
	wg.Wait()
}

// TestTraceShed: an admission-control refusal settles shed after classify —
// the request never touches the scheduler.
func TestTraceShed(t *testing.T) {
	// MaxConns 2 with reservations 500/200 gives site1 one guaranteed slot
	// and site2 none: any site2 request is spare, and a second one while
	// the first is still queued must be shed to protect site1's idle slot.
	addr, srv := startTB(t, Config{
		Subscribers:      defaultSubs(),
		Backends:         []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		QueueTimeout:     2 * time.Second,
		MaxConns:         2,
		TraceSampleEvery: 1,
	})
	// The first request is parked in the queue holding site2's one slot; the
	// second is the one shed.
	release := park(srv)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = rawGet(t, addr, "www.site2.example", "/static/512.html")
	}()
	waitQueued(t, srv, "site2")
	if resp, err := rawGet(t, addr, "www.site2.example", "/static/512.html"); err != nil || resp.StatusCode != 503 {
		t.Fatalf("second site2 request: resp=%+v err=%v, want 503", resp, err)
	}
	release()
	if got := srv.Stats().Shed; got != 1 {
		t.Fatalf("shed = %d, want 1; stats=%+v", got, srv.Stats())
	}
	tr := waitTrace(t, srv, telemetry.OutcomeShed)
	assertStages(t, tr, telemetry.StageClassify, telemetry.StageSettle)
	if tr.Subscriber != "site2" {
		t.Errorf("subscriber = %q, want site2", tr.Subscriber)
	}
	wg.Wait()
}

// TestTraceDrainAbort: shutdown while a request waits in the queue settles
// it drain-abort once the drain window closes.
func TestTraceDrainAbort(t *testing.T) {
	addr, srv := startTB(t, Config{
		Subscribers:      defaultSubs(),
		Backends:         []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		QueueTimeout:     10 * time.Second,
		DrainTimeout:     50 * time.Millisecond,
		TraceSampleEvery: 1,
	})
	park(srv)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = rawGet(t, addr, "www.site1.example", "/static/512.html")
	}()
	// Let the request reach the queue before closing.
	waitQueued(t, srv, "site1")
	_ = srv.Close()
	wg.Wait()
	tr := waitTrace(t, srv, telemetry.OutcomeDrainAbort)
	assertStages(t, tr, telemetry.StageClassify, telemetry.StageQueue, telemetry.StageSettle)
}

// metricsWorkload drives a small deterministic mix of outcomes and waits
// until the counters have settled.
func metricsWorkload(t *testing.T, addr string, srv *Server) {
	t.Helper()
	for i := 0; i < 3; i++ {
		if resp, err := rawGet(t, addr, "www.site1.example", "/static/512.html"); err != nil || resp.StatusCode != 200 {
			t.Fatalf("get: resp=%+v err=%v", resp, err)
		}
	}
	if resp, err := rawGet(t, addr, "www.site2.example", "/static/512.html"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("get: resp=%+v err=%v", resp, err)
	}
	if resp, err := rawGet(t, addr, "www.nope.example", "/x"); err != nil || resp.StatusCode != 404 {
		t.Fatalf("get: resp=%+v err=%v", resp, err)
	}
	// served increments after the response write; wait for the counters.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Served < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsEndpoint: the exposition parses under the package's own strict
// lint, counters agree with the JSON stats endpoint, and every counter is
// monotone across scrapes.
func TestMetricsEndpoint(t *testing.T) {
	addr, srv := startTB(t, Config{
		Subscribers:      defaultSubs(),
		Backends:         []Backend{{ID: 1, Addr: liveBackend(t, 1)}, {ID: 2, Addr: liveBackend(t, 2)}},
		MaxConns:         64,
		TraceSampleEvery: 2,
	})
	metricsWorkload(t, addr, srv)

	stats := scrape(t, addr, StatsPath)
	var js struct {
		Accepted     uint64 `json:"accepted"`
		Served       uint64 `json:"served"`
		Rejected     uint64 `json:"rejected"`
		Unclassified uint64 `json:"unclassified"`
		Shed         uint64 `json:"shed"`
	}
	if err := json.Unmarshal(stats.Body, &js); err != nil {
		t.Fatalf("stats json: %v", err)
	}

	m1 := scrape(t, addr, MetricsPath)
	if ct := m1.Header["Content-Type"]; ct != telemetry.ContentType {
		t.Errorf("content type = %q, want %q", ct, telemetry.ContentType)
	}
	series1, err := telemetry.Parse(m1.Body)
	if err != nil {
		t.Fatalf("first scrape fails lint: %v\n%s", err, m1.Body)
	}

	// Counters the scrapes themselves cannot move must match the JSON
	// stats; accepted moved by exactly the metrics scrape's own connection.
	same := map[string]uint64{
		"gage_requests_served_total":       js.Served,
		"gage_requests_rejected_total":     js.Rejected,
		"gage_requests_unclassified_total": js.Unclassified,
		"gage_requests_shed_total":         js.Shed,
	}
	for name, want := range same {
		if got := series1[name].Value; got != float64(want) {
			t.Errorf("%s = %v, want %d (stats JSON)", name, got, want)
		}
	}
	if got := series1["gage_connections_accepted_total"].Value; got != float64(js.Accepted+1) {
		t.Errorf("accepted = %v, want %d (stats value + the metrics scrape itself)", got, js.Accepted+1)
	}
	if got := series1[`gage_request_latency_seconds_count{subscriber="site1"}`].Value; got != 3 {
		t.Errorf("site1 latency count = %v, want 3", got)
	}
	if got := series1[`gage_request_latency_seconds_count{subscriber="site2"}`].Value; got != 1 {
		t.Errorf("site2 latency count = %v, want 1", got)
	}
	relayCount := series1[`gage_relay_latency_seconds_count{node="1"}`].Value +
		series1[`gage_relay_latency_seconds_count{node="2"}`].Value
	if relayCount != 4 {
		t.Errorf("relay latency counts sum to %v, want 4", relayCount)
	}

	// More traffic, then a second scrape: every *_total series must exist
	// in both and never decrease.
	if resp, err := rawGet(t, addr, "www.site1.example", "/static/512.html"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("get: resp=%+v err=%v", resp, err)
	}
	m2 := scrape(t, addr, MetricsPath)
	series2, err := telemetry.Parse(m2.Body)
	if err != nil {
		t.Fatalf("second scrape fails lint: %v", err)
	}
	for key, s1 := range series1 {
		if !strings.Contains(s1.Name, "_total") {
			continue
		}
		s2, ok := series2[key]
		if !ok {
			t.Errorf("counter %s vanished from the second scrape", key)
			continue
		}
		if s2.Value < s1.Value {
			t.Errorf("counter %s went backwards: %v then %v", key, s1.Value, s2.Value)
		}
	}
}

// TestMetricsGolden pins the exposition's shape — the exact HELP/TYPE lines
// and series keys, values stripped — so accidental renames, dropped labels
// or reordered families fail loudly. Regenerate with -update.
func TestMetricsGolden(t *testing.T) {
	addr, srv := startTB(t, Config{
		Subscribers:      defaultSubs(),
		Backends:         []Backend{{ID: 1, Addr: liveBackend(t, 1)}, {ID: 2, Addr: liveBackend(t, 2)}},
		MaxConns:         64,
		TraceSampleEvery: 2,
	})
	metricsWorkload(t, addr, srv)
	body := scrape(t, addr, MetricsPath).Body

	var shape strings.Builder
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			shape.WriteString(line)
		} else if i := strings.LastIndexByte(line, ' '); i >= 0 {
			shape.WriteString(line[:i])
		}
		shape.WriteByte('\n')
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(shape.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if shape.String() != string(want) {
		t.Errorf("metrics shape drifted from %s (run with -update to accept):\n--- got ---\n%s\n--- want ---\n%s",
			golden, shape.String(), want)
	}
}

// TestTraceEndpoint: the JSON dump round-trips, reports the sampling
// config, and every retained trace is structurally valid.
func TestTraceEndpoint(t *testing.T) {
	addr, srv := startTB(t, Config{
		Subscribers:      defaultSubs(),
		Backends:         []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		TraceSampleEvery: 2,
		TraceBuffer:      8,
	})
	for i := 0; i < 6; i++ {
		if resp, err := rawGet(t, addr, "www.site1.example", "/static/512.html"); err != nil || resp.StatusCode != 200 {
			t.Fatalf("get: resp=%+v err=%v", resp, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, settled := srv.Tracer().Counts()
		if settled >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("traces never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp := scrape(t, addr, TracePath)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var dump struct {
		SampleEvery uint64            `json:"sampleEvery"`
		Seen        uint64            `json:"seen"`
		Sampled     uint64            `json:"sampled"`
		Settled     uint64            `json:"settled"`
		Traces      []telemetry.Trace `json:"traces"`
	}
	if err := json.Unmarshal(resp.Body, &dump); err != nil {
		t.Fatalf("trace json: %v\n%s", err, resp.Body)
	}
	if dump.SampleEvery != 2 {
		t.Errorf("sampleEvery = %d, want 2", dump.SampleEvery)
	}
	if dump.Seen != 6 || dump.Sampled != 3 {
		t.Errorf("seen/sampled = %d/%d, want 6/3 (deterministic: every 2nd ID)", dump.Seen, dump.Sampled)
	}
	if len(dump.Traces) != 3 {
		t.Fatalf("dump holds %d traces, want 3", len(dump.Traces))
	}
	for _, tr := range dump.Traces {
		if err := telemetry.Validate(tr); err != nil {
			t.Errorf("dumped trace invalid after round-trip: %v", err)
		}
		if out := telemetry.SettledOutcome(tr); out != telemetry.OutcomeServed {
			t.Errorf("trace %d outcome = %q, want served", tr.ReqID, out)
		}
		if tr.ReqID%2 != 0 {
			t.Errorf("trace %d sampled with period 2", tr.ReqID)
		}
	}
}

// TestTelemetryScrapeRace hammers the serving path and all three
// introspection endpoints concurrently — the -race gate for the dispatcher's
// telemetry wiring.
func TestTelemetryScrapeRace(t *testing.T) {
	addr, srv := startTB(t, Config{
		Subscribers:      defaultSubs(),
		Backends:         []Backend{{ID: 1, Addr: liveBackend(t, 1)}, {ID: 2, Addr: liveBackend(t, 2)}},
		MaxConns:         128,
		TraceSampleEvery: 3,
	})
	hosts := []string{"www.site1.example", "www.site2.example", "www.nope.example"}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, _ = rawGet(t, addr, hosts[(g+i)%len(hosts)], "/static/512.html")
			}
		}(g)
	}
	var scrapeWG sync.WaitGroup
	for _, path := range []string{MetricsPath, TracePath, StatsPath} {
		scrapeWG.Add(1)
		go func(path string) {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp := scrape(t, addr, path)
				if resp.StatusCode != 200 {
					t.Errorf("%s status = %d", path, resp.StatusCode)
					return
				}
				if path == MetricsPath {
					if err := telemetry.Lint(resp.Body); err != nil {
						t.Errorf("mid-load scrape fails lint: %v", err)
						return
					}
				}
			}
		}(path)
	}
	wg.Wait()
	close(done)
	scrapeWG.Wait()

	body := scrape(t, addr, MetricsPath).Body
	series, err := telemetry.Parse(body)
	if err != nil {
		t.Fatalf("final scrape fails lint: %v", err)
	}
	st := srv.Stats()
	if got := series["gage_requests_served_total"].Value; got != float64(st.Served) {
		t.Errorf("served = %v, want %d", got, st.Served)
	}
	for _, tr := range srv.Tracer().Traces() {
		if err := telemetry.Validate(tr); err != nil {
			t.Errorf("trace invalid: %v", err)
		}
	}
}

// benchmarkServe measures one end-to-end request per iteration; the
// tracing-off and tracing-on variants bound the telemetry overhead on the
// serving path.
func benchmarkServe(b *testing.B, sampleEvery int) {
	addr, _ := startTB(b, Config{
		Subscribers:      defaultSubs(),
		Backends:         []Backend{{ID: 1, Addr: liveBackend(b, 1)}},
		Scheduler:        core.Config{Cycle: time.Millisecond},
		TraceSampleEvery: sampleEvery,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := benchGet(addr)
		if err != nil {
			b.Fatalf("get: %v", err)
		}
		if resp.StatusCode != 200 {
			b.Fatalf("status = %d", resp.StatusCode)
		}
	}
}

func benchGet(addr string) (*httpwire.Response, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return nil, err
	}
	req := &httpwire.Request{Method: "GET", Target: "/static/512.html", Proto: "HTTP/1.0", Host: "www.site1.example"}
	if err := req.Write(conn); err != nil {
		return nil, err
	}
	return httpwire.ReadResponse(bufio.NewReader(conn))
}

func BenchmarkServeTracingOff(b *testing.B)      { benchmarkServe(b, 0) }
func BenchmarkServeTracingEvery1(b *testing.B)   { benchmarkServe(b, 1) }
func BenchmarkServeTracingEvery100(b *testing.B) { benchmarkServe(b, 100) }
