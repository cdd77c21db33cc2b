package dispatch

import (
	"bufio"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gage/internal/backend"
	"gage/internal/core"
	"gage/internal/httpwire"
	"gage/internal/qos"
)

// cluster spins up n backends plus a dispatcher on loopback and returns the
// dispatcher's address.
func cluster(t *testing.T, n int, subs []qos.Subscriber, sched core.Config) (string, *Server) {
	t.Helper()
	backends := make([]Backend, 0, n)
	for i := 1; i <= n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("backend listen: %v", err)
		}
		be := backend.New(backend.Config{Node: core.NodeID(i)})
		go func() { _ = be.Serve(ln) }()
		t.Cleanup(func() { _ = be.Close() })
		backends = append(backends, Backend{ID: core.NodeID(i), Addr: ln.Addr().String()})
	}
	srv, err := New(Config{
		Subscribers: subs,
		Backends:    backends,
		Scheduler:   sched,
		AcctCycle:   50 * time.Millisecond,
		Logger:      log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("dispatcher listen: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String(), srv
}

func defaultSubs() []qos.Subscriber {
	return []qos.Subscriber{
		{ID: "site1", Hosts: []string{"www.site1.example"}, Reservation: 500},
		{ID: "site2", Hosts: []string{"www.site2.example"}, Reservation: 200},
	}
}

// get issues one request through the dispatcher.
func get(t *testing.T, addr, host, path string) (*httpwire.Response, error) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Dispatcher queueing can hold a request across scheduling cycles.
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatalf("deadline: %v", err)
	}
	req := &httpwire.Request{Method: "GET", Target: path, Proto: "HTTP/1.0", Host: host}
	if err := req.Write(conn); err != nil {
		t.Fatalf("write: %v", err)
	}
	return httpwire.ReadResponse(bufio.NewReader(conn))
}

// waitServed polls until the dispatcher has counted n served requests (or
// two seconds pass, leaving the caller's assertion to fail as it would
// have). relay counts `served` after the response write returns, so a client
// can be holding its response a moment before the counter moves; any test
// that reads Served straight after a response waits here first.
func waitServed(srv *Server, n uint64) {
	for deadline := time.Now().Add(2 * time.Second); srv.Stats().Served < n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// park makes every request that follows wait in its subscriber's queue,
// whatever its credit: each node is marked draining, which pins its scheduler
// weight at 0 (the accounting loop's re-apply included), so neither Submit
// nor a tick finds a node with room. Nothing depends on how a scheduling
// cycle falls against a timeout. The returned release lifts the marks; the
// next tick then dispatches what is parked.
func park(srv *Server) (release func()) {
	mark := func(on bool) {
		srv.adminMu.Lock()
		defer srv.adminMu.Unlock()
		for _, n := range srv.top().nodes {
			n.draining.Store(on)
			srv.applyWeight(n)
		}
	}
	mark(true)
	return func() { mark(false) }
}

// waitQueued blocks until sub has a request waiting in its queue.
func waitQueued(tb testing.TB, srv *Server, sub qos.SubscriberID) {
	tb.Helper()
	for deadline := time.Now().Add(5 * time.Second); srv.sched.QueueLen(sub) == 0; {
		if time.Now().After(deadline) {
			tb.Fatal("request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRelayEndToEnd(t *testing.T) {
	addr, srv := cluster(t, 2, defaultSubs(), core.Config{})
	resp, err := get(t, addr, "www.site1.example", "/static/2048.html")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(resp.Body) != 2048 {
		t.Errorf("body = %d bytes, want 2048", len(resp.Body))
	}
	waitServed(srv, 1)
	st := srv.Stats()
	if st.Served != 1 || st.Accepted != 1 {
		t.Errorf("stats = %+v, want served=1", st)
	}
}

func TestUnknownHost404(t *testing.T) {
	addr, srv := cluster(t, 1, defaultSubs(), core.Config{})
	resp, err := get(t, addr, "www.nope.example", "/x")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if resp.StatusCode != 404 {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	if srv.Stats().Unclassified != 1 {
		t.Errorf("unclassified = %d, want 1", srv.Stats().Unclassified)
	}
}

func TestMalformedRequest400(t *testing.T) {
	addr, _ := cluster(t, 1, defaultSubs(), core.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("garbage\r\n\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	resp, err := httpwire.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if resp.StatusCode != 400 {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestOverflow503(t *testing.T) {
	subs := []qos.Subscriber{
		{ID: "tiny", Hosts: []string{"tiny.example"}, Reservation: 1, QueueLimit: 1},
	}
	// A slow cycle so queued requests cannot drain between arrivals.
	addr, srv := cluster(t, 1, subs, core.Config{Cycle: 200 * time.Millisecond})

	const n = 12
	var (
		mu     sync.Mutex
		counts = map[int]int{}
		wg     sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := get(t, addr, "tiny.example", "/x")
			if err != nil {
				return
			}
			mu.Lock()
			counts[resp.StatusCode]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if counts[503] == 0 {
		t.Errorf("responses = %v, want some 503s under overflow", counts)
	}
	if srv.Stats().Rejected == 0 {
		t.Error("rejected counter must be non-zero")
	}
}

func TestBackendDown502(t *testing.T) {
	// One backend that is immediately closed: dials fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	srv, err := New(Config{
		Subscribers: defaultSubs(),
		Backends:    []Backend{{ID: 1, Addr: deadAddr}},
		Logger:      log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = srv.Serve(dln) }()
	t.Cleanup(func() { _ = srv.Close() })

	resp, err := get(t, dln.Addr().String(), "www.site1.example", "/x")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if resp.StatusCode != 502 {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
	if srv.Stats().Errors == 0 {
		t.Error("errors counter must be non-zero")
	}
}

func TestAccountingFeedsScheduler(t *testing.T) {
	addr, srv := cluster(t, 1, defaultSubs(), core.Config{})
	for i := 0; i < 5; i++ {
		if _, err := get(t, addr, "www.site1.example", "/static/6144.html"); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	// Wait for at least one accounting poll.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		pred, ok := srv.Scheduler().Predicted("site1")
		if ok && pred != qos.GenericCost() {
			// Predictor moved off its 2000-byte prior toward the measured
			// 6544 bytes (one EWMA step: 0.3×6544 + 0.7×2000 ≈ 3363).
			if pred.NetBytes <= 2000 {
				t.Errorf("predicted net = %d, must move above the 2000-byte prior", pred.NetBytes)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Error("scheduler predictor never updated from backend reports")
}

func TestManyConcurrentRequestsSpreadAcrossBackends(t *testing.T) {
	addr, srv := cluster(t, 3, defaultSubs(), core.Config{})
	const n = 30
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := get(t, addr, "www.site2.example", "/static/512.html")
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != 200 || len(resp.Body) != 512 {
				errs <- io.ErrUnexpectedEOF
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("request failed: %v", err)
	}
	waitServed(srv, n)
	if got := srv.Stats().Served; got != n {
		t.Errorf("served = %d, want %d", got, n)
	}
}

func TestPersistentConnectionServesMultipleRequests(t *testing.T) {
	// P-HTTP: an HTTP/1.1 client reuses one connection for several
	// requests, each scheduled independently.
	addr, srv := cluster(t, 2, defaultSubs(), core.Config{})
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatalf("deadline: %v", err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		req := &httpwire.Request{
			Method: "GET",
			Target: "/static/512.html",
			Proto:  "HTTP/1.1",
			Host:   "www.site1.example",
		}
		if err := req.Write(conn); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		resp, err := httpwire.ReadResponse(br)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if resp.StatusCode != 200 || len(resp.Body) != 512 {
			t.Fatalf("request %d: status %d, %d bytes", i, resp.StatusCode, len(resp.Body))
		}
	}
	waitServed(srv, 3)
	if got := srv.Stats().Served; got != 3 {
		t.Errorf("served = %d, want 3 on one connection", got)
	}
	if got := srv.Stats().Accepted; got != 1 {
		t.Errorf("accepted = %d, want 1 connection", got)
	}
}

func TestWantKeepAlive(t *testing.T) {
	tests := []struct {
		proto, connection string
		want              bool
	}{
		{"HTTP/1.1", "", true},
		{"HTTP/1.1", "keep-alive", true},
		{"HTTP/1.1", "close", false},
		{"HTTP/1.1", "Close", false},
		{"HTTP/1.0", "", false},
		{"HTTP/1.0", "keep-alive", true},
		{"HTTP/1.0", "Keep-Alive", true},
	}
	for _, tt := range tests {
		req := &httpwire.Request{Proto: tt.proto, Header: map[string]string{}}
		if tt.connection != "" {
			req.Header["Connection"] = tt.connection
		}
		if got := req.KeepAlive(); got != tt.want {
			t.Errorf("KeepAlive(%s, %q) = %v, want %v", tt.proto, tt.connection, got, tt.want)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	addr, srv := cluster(t, 2, defaultSubs(), core.Config{})
	if _, err := get(t, addr, "www.site1.example", "/static/100.html"); err != nil {
		t.Fatalf("get: %v", err)
	}
	waitServed(srv, 1)
	resp, err := get(t, addr, "", StatsPath)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var out statsJSON
	if err := json.Unmarshal(resp.Body, &out); err != nil {
		t.Fatalf("stats body: %v\n%s", err, resp.Body)
	}
	if out.Served != 1 {
		t.Errorf("served = %d, want 1", out.Served)
	}
	s1, ok := out.Subscribers["site1"]
	if !ok {
		t.Fatalf("stats missing site1: %+v", out.Subscribers)
	}
	if s1.ReservationGRPS != 500 {
		t.Errorf("site1 reservation = %v, want 500", s1.ReservationGRPS)
	}
	if len(out.Nodes) != 2 {
		t.Errorf("nodes = %d, want 2", len(out.Nodes))
	}
}

func TestAccountingSurvivesLostPolls(t *testing.T) {
	// Two requests, then a poll; the backend serves cumulative counters, so
	// even if earlier polls were lost, the dispatcher's delta accounts for
	// everything since its last successful poll.
	addr, srv := cluster(t, 1, defaultSubs(), core.Config{})
	for i := 0; i < 3; i++ {
		if _, err := get(t, addr, "www.site1.example", "/static/1000.html"); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if out, ok := srv.Scheduler().Outstanding(1); ok && out.IsZero() && srv.Stats().Served == 3 {
			return // all usage accounted: outstanding fully released
		}
		time.Sleep(20 * time.Millisecond)
	}
	out, _ := srv.Scheduler().Outstanding(1)
	t.Errorf("outstanding after all completions = %v, want zero", out)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Subscribers: defaultSubs()}); err == nil {
		t.Error("missing backends must be rejected")
	}
	if _, err := New(Config{Backends: []Backend{{ID: 1, Addr: "x"}}}); err == nil {
		t.Error("missing subscribers must be rejected")
	}
}

func TestUnhealthyBackendDisabledThenRecovered(t *testing.T) {
	// One live backend and one dead address. After the health threshold,
	// the scheduler must stop picking the dead node so requests stop
	// hitting 502s.
	liveLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	be := backend.New(backend.Config{Node: 1})
	go func() { _ = be.Serve(liveLn) }()
	t.Cleanup(func() { _ = be.Close() })

	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	srv, err := New(Config{
		Subscribers: defaultSubs(),
		Backends: []Backend{
			{ID: 1, Addr: liveLn.Addr().String()},
			{ID: 2, Addr: deadAddr},
		},
		AcctCycle: 30 * time.Millisecond,
		Logger:    log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	// The accounting poller hits the dead backend every 30 ms: within a few
	// cycles it crosses the failure threshold and disables node 2.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && srv.Scheduler().NodeEnabled(2) {
		time.Sleep(20 * time.Millisecond)
	}
	if srv.Scheduler().NodeEnabled(2) {
		t.Fatal("dead node 2 was never disabled")
	}
	// All requests now succeed via the healthy node.
	for i := 0; i < 6; i++ {
		resp, err := get(t, ln.Addr().String(), "www.site1.example", "/static/256.html")
		if err != nil {
			t.Fatalf("get after disable: %v", err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("status after disable = %d, want 200", resp.StatusCode)
		}
	}
	if srv.Scheduler().NodeEnabled(2) {
		t.Error("node 2 must stay disabled while unreachable")
	}
}

func TestCloseIdempotent(t *testing.T) {
	_, srv := cluster(t, 1, defaultSubs(), core.Config{})
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// countingListener counts accepted connections — a probe for poll cadence.
type countingListener struct {
	net.Listener
	hits atomic.Int64
}

func (cl *countingListener) Accept() (net.Conn, error) {
	c, err := cl.Listener.Accept()
	if err == nil {
		cl.hits.Add(1)
	}
	return c, err
}

// hangingBackend accepts TCP connections and never answers — the worst kind
// of dead node: dials succeed and every exchange runs out its full deadline.
func hangingBackend(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// brokenBackend accepts TCP connections and immediately closes them: the
// dial succeeds but every request fails at the exchange.
func brokenBackend(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// startServer runs a dispatcher for a prebuilt config and returns its address.
func startServer(t *testing.T, cfg Config) (string, *Server) {
	t.Helper()
	cfg.Logger = log.New(io.Discard, "", 0)
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String(), srv
}

// liveBackend starts one real backend and returns its address.
func liveBackend(t testing.TB, id core.NodeID) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("backend listen: %v", err)
	}
	be := backend.New(backend.Config{Node: id})
	go func() { _ = be.Serve(ln) }()
	t.Cleanup(func() { _ = be.Close() })
	return ln.Addr().String()
}

// TestAbandonedRequestReleasesCharge is the lifecycle regression test: a
// request whose client gave up (queue-wait timeout) must leave nothing
// behind — before the lifecycle fix a stale request dispatched after its
// client had gone was never relayed, and its predicted usage stayed in the
// node's outstanding load forever, shrinking its capacity with every
// abandoned request.
func TestAbandonedRequestReleasesCharge(t *testing.T) {
	addr, srv := startServer(t, Config{
		Subscribers:  defaultSubs(),
		Backends:     []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		QueueTimeout: 40 * time.Millisecond,
		AcctCycle:    50 * time.Millisecond,
	})
	// The request waits out its queue timeout parked; the ticks that follow
	// the release must find nothing of it to dispatch.
	release := park(srv)
	resp, err := get(t, addr, "www.site1.example", "/static/512.html")
	release()
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503 (abandoned before dispatch)", resp.StatusCode)
	}
	// Whether the abandonment canceled the queued request or the tick loop
	// reclaimed the dispatched charge, all accounting must return to zero.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		out, _ := srv.Scheduler().Outstanding(1)
		if out.IsZero() && srv.Scheduler().QueueLen("site1") == 0 {
			if got := srv.Stats().Abandoned; got != 1 {
				t.Errorf("abandoned = %d, want 1", got)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	out, _ := srv.Scheduler().Outstanding(1)
	t.Errorf("abandoned request leaked: outstanding = %v, queued = %d, want zero",
		out, srv.Scheduler().QueueLen("site1"))
}

// TestAbandonDispatchHandshake drives both interleavings of the
// dispatch/abandon race deterministically against the handshake primitives.
func TestAbandonDispatchHandshake(t *testing.T) {
	newSrv := func() (*Server, *pendingConn) {
		srv, pc := handshakeServer(t), &newWire().pc
		enqueue(t, srv, pc, 1, "a1")
		return srv, pc
	}

	// Abandon wins: the request was popped by Tick but not yet delivered.
	// deliver's failed CAS must reclaim the charge.
	srv, pc := newSrv()
	ds := srv.sched.Tick()
	if len(ds) != 1 {
		t.Fatalf("dispatched %d, want 1", len(ds))
	}
	srv.abandon(pc)
	srv.deliver(ds[0])
	if out, _ := srv.sched.Outstanding(1); !out.IsZero() {
		t.Errorf("abandon-then-deliver: outstanding = %v, want zero", out)
	}
	select {
	case n := <-pc.node:
		t.Errorf("abandoned request must not receive a node, got %d", n)
	default:
	}

	// Dispatcher wins: the node is already in the channel when the client
	// abandons. abandon must consume it and release the charge, so a stale
	// relay can never run against the moved-on connection.
	srv, pc = newSrv()
	ds = srv.sched.Tick()
	if len(ds) != 1 {
		t.Fatalf("dispatched %d, want 1", len(ds))
	}
	srv.deliver(ds[0])
	srv.abandon(pc)
	if out, _ := srv.sched.Outstanding(1); !out.IsZero() {
		t.Errorf("deliver-then-abandon: outstanding = %v, want zero", out)
	}
	select {
	case n := <-pc.node:
		t.Errorf("abandon must consume the dispatch decision, got %d", n)
	default:
	}
}

// TestTimedOutKeepAliveConnStaysUsable: after a queue-wait timeout answers
// 503, the persistent connection keeps serving subsequent requests with
// clean framing — the abandoned request can never write to it.
func TestTimedOutKeepAliveConnStaysUsable(t *testing.T) {
	addr, srv := startServer(t, Config{
		Subscribers:  defaultSubs(),
		Backends:     []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		QueueTimeout: 50 * time.Millisecond,
		AcctCycle:    50 * time.Millisecond,
	})
	defer park(srv)()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatalf("deadline: %v", err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		req := &httpwire.Request{
			Method: "GET",
			Target: "/static/512.html",
			Proto:  "HTTP/1.1",
			Host:   "www.site1.example",
		}
		if err := req.Write(conn); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		resp, err := httpwire.ReadResponse(br)
		if err != nil {
			t.Fatalf("read %d: %v (framing corrupted?)", i, err)
		}
		if resp.StatusCode != 503 {
			t.Fatalf("request %d: status = %d, want 503 (queue timeout)", i, resp.StatusCode)
		}
	}
	if got := srv.Stats().Abandoned; got != 2 {
		t.Errorf("abandoned = %d, want 2", got)
	}
	if got := srv.Stats().Served; got != 0 {
		t.Errorf("served = %d, want 0", got)
	}
}

// TestRefusalEndsOnAKeptConnection: a queue-full 503 leaves the client
// connection open, so the refusal has to say where it ends. The client here
// frames responses by net/http's rules, not httpwire's: without
// Content-Length: 0 it would read the 503's "body" until the dispatcher's
// idle timeout closed the connection, and the 200 that follows on the same
// connection would never be asked for. The filler is parked, so the queue is
// full exactly when the test says so.
func TestRefusalEndsOnAKeptConnection(t *testing.T) {
	subs := []qos.Subscriber{{ID: "tiny", Hosts: []string{"tiny.example"}, Reservation: 100, QueueLimit: 1}}
	addr, srv := startServer(t, Config{
		Subscribers: subs,
		Backends:    []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		AcctCycle:   50 * time.Millisecond,
	})

	// One request fills the queue and waits there.
	release := park(srv)
	filler := make(chan int, 1)
	go func() {
		resp, err := get(t, addr, "tiny.example", "/static/512.html")
		if err != nil {
			filler <- 0
			return
		}
		filler <- resp.StatusCode
	}()
	waitQueued(t, srv, "tiny")

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	exchange := func() (int, int) {
		t.Helper()
		// Far below the 60 s idle timeout that ends an unframed response.
		_ = conn.SetDeadline(time.Now().Add(3 * time.Second))
		req := &httpwire.Request{Method: "GET", Target: "/static/512.html", Proto: "HTTP/1.1", Host: "tiny.example"}
		if err := req.Write(conn); err != nil {
			t.Fatalf("write: %v", err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("read head: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("status %d: read body: %v (a response with no stated end?)", resp.StatusCode, err)
		}
		return resp.StatusCode, len(body)
	}
	if code, n := exchange(); code != 503 || n != 0 {
		t.Fatalf("against a full queue: status %d with %d body bytes, want an empty 503", code, n)
	}
	release()
	if code := <-filler; code != 200 {
		t.Fatalf("queued request: status %d, want 200", code)
	}
	if code, n := exchange(); code != 200 || n != 512 {
		t.Fatalf("after the refusal, same connection: status %d with %d body bytes, want 200 with 512", code, n)
	}
	if st := srv.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

// TestRelayRetriesAlternateNode: with one dead and one live backend every
// request succeeds — a dial failure re-dispatches the charge through the
// scheduler to the other node instead of answering 502.
func TestRelayRetriesAlternateNode(t *testing.T) {
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	addr, srv := startServer(t, Config{
		Subscribers: defaultSubs(),
		Backends: []Backend{
			{ID: 1, Addr: deadAddr},
			{ID: 2, Addr: liveBackend(t, 2)},
		},
		// Keep accounting polls out of the way so only relay dials count
		// toward node health and the dead node stays dispatched-to at first.
		AcctCycle:    time.Hour,
		RetryBackoff: 5 * time.Millisecond,
	})
	const n = 10
	for i := 0; i < n; i++ {
		resp, err := get(t, addr, "www.site1.example", "/static/256.html")
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status = %d, want 200 (retry must route around the dead node)", i, resp.StatusCode)
		}
	}
	waitServed(srv, n)
	st := srv.Stats()
	if st.Served != n {
		t.Errorf("served = %d, want %d", st.Served, n)
	}
	if st.Retried == 0 {
		t.Error("retried = 0: the dead node was never dialed — test did not exercise the retry path")
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d, want 0 (no request may 502)", st.Errors)
	}
	if srv.Scheduler().NodeEnabled(1) {
		t.Error("dead node must be disabled after repeated dial failures")
	}
	// Every retried charge moved off the dead node: it must carry nothing.
	// (Node 2's outstanding settles via accounting reports, which this test
	// deliberately suppresses.)
	if o1, _ := srv.Scheduler().Outstanding(1); !o1.IsZero() {
		t.Errorf("dead node outstanding = %v, want zero (charge stuck on unreachable node)", o1)
	}
}

// TestRequestLevelFailuresDisableBackend: a backend that accepts TCP but
// fails every exchange must still cross UnhealthyAfter — before the fix only
// dial failures counted, and the successful dial even reset the streak.
func TestRequestLevelFailuresDisableBackend(t *testing.T) {
	addr, srv := startServer(t, Config{
		Subscribers: defaultSubs(),
		Backends: []Backend{
			{ID: 1, Addr: brokenBackend(t)},
			{ID: 2, Addr: liveBackend(t, 2)},
		},
		AcctCycle: time.Hour, // only relay outcomes drive health here
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && srv.Scheduler().NodeEnabled(1) {
		if _, err := get(t, addr, "www.site1.example", "/static/128.html"); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	if srv.Scheduler().NodeEnabled(1) {
		t.Fatal("request-level relay failures never disabled the broken node")
	}
	// With the broken node out of rotation, service is clean again.
	for i := 0; i < 5; i++ {
		resp, err := get(t, addr, "www.site1.example", "/static/128.html")
		if err != nil {
			t.Fatalf("get after disable: %v", err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("status after disable = %d, want 200", resp.StatusCode)
		}
	}
}

// TestConcurrentAcctPollsSurviveDeadBackend: one hung backend (accepts, then
// stalls for the full per-node deadline) must not stretch the other nodes'
// accounting cadence — polls run concurrently, so live nodes keep their
// AcctCycle feedback loop.
func TestConcurrentAcctPollsSurviveDeadBackend(t *testing.T) {
	const acct = 50 * time.Millisecond
	makeCounted := func(id core.NodeID) (*countingListener, string) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		cl := &countingListener{Listener: ln}
		be := backend.New(backend.Config{Node: id})
		go func() { _ = be.Serve(cl) }()
		t.Cleanup(func() { _ = be.Close() })
		return cl, ln.Addr().String()
	}
	cl1, addr1 := makeCounted(1)
	cl2, addr2 := makeCounted(2)

	_, srv := startServer(t, Config{
		Subscribers: defaultSubs(),
		Backends: []Backend{
			{ID: 1, Addr: addr1},
			{ID: 2, Addr: addr2},
			{ID: 3, Addr: hangingBackend(t)},
		},
		AcctCycle: acct,
		// The hung node burns its full deadline on every probe; with
		// sequential polling this would stall every round for 400 ms.
		DialTimeout: 400 * time.Millisecond,
	})
	const window = 1500 * time.Millisecond
	time.Sleep(window)
	// Each live backend must have been polled at least once per 2×AcctCycle
	// over the window (generous slack for scheduling jitter).
	minPolls := int64(window / (2 * acct) / 2)
	if got := cl1.hits.Load(); got < minPolls {
		t.Errorf("node 1 polled %d times in %v, want ≥ %d (cadence within 2×AcctCycle)", got, window, minPolls)
	}
	if got := cl2.hits.Load(); got < minPolls {
		t.Errorf("node 2 polled %d times in %v, want ≥ %d (cadence within 2×AcctCycle)", got, window, minPolls)
	}
	// The hung node crosses the failure threshold (one slow failure per
	// DialTimeout, serialized by the in-flight guard) and leaves rotation.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && srv.Scheduler().NodeEnabled(3) {
		time.Sleep(20 * time.Millisecond)
	}
	if srv.Scheduler().NodeEnabled(3) {
		t.Error("hung node 3 must be disabled")
	}
}

// enqueue refills a record for request id of sub, as serveOne does, and puts
// it in the subscriber's queue.
func enqueue(t *testing.T, srv *Server, pc *pendingConn, id uint64, sub qos.SubscriberID) {
	t.Helper()
	pc.id, pc.sub = id, sub
	pc.arm()
	if err := srv.sched.Enqueue(core.Request{ID: id, Subscriber: sub, Payload: pc}); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
}
