package dispatch

import (
	"bufio"
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gage/internal/backend"
	"gage/internal/breaker"
	"gage/internal/core"
	"gage/internal/httpwire"
)

// noPolls parks the accounting loop so that every Config.Dial call a test
// counts is a relay's.
const noPolls = time.Hour

// countingDialer counts dials and remembers every connection it handed out,
// so a test can ask how many are still open.
type countingDialer struct {
	dials atomic.Int64
	mu    sync.Mutex
	conns []*closeNotingConn
}

type closeNotingConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *closeNotingConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func (d *countingDialer) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	d.dials.Add(1)
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	cc := &closeNotingConn{Conn: c}
	d.mu.Lock()
	d.conns = append(d.conns, cc)
	d.mu.Unlock()
	return cc, nil
}

func (d *countingDialer) open() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.conns {
		if !c.closed.Load() {
			n++
		}
	}
	return n
}

// poolCounts sums the relay dial and reuse counters over every node.
func poolCounts(srv *Server) (dials, reuses uint64) {
	for _, n := range srv.top().nodes {
		dials += n.pool.dials.Load()
		reuses += n.pool.reuses.Load()
	}
	return dials, reuses
}

func idleCount(srv *Server, id core.NodeID) int {
	p := &srv.node(id).pool
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

func trackedBackends(srv *Server) int {
	srv.beMu.Lock()
	defer srv.beMu.Unlock()
	return len(srv.beConns)
}

// warm serves n sequential one-connection-per-request clients through the
// dispatcher, each of which must get its page.
func warm(t *testing.T, addr string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, err := get(t, addr, "www.site1.example", "/static/512.html")
		if err != nil || resp.StatusCode != 200 || len(resp.Body) != 512 {
			t.Fatalf("get %d: resp=%v err=%v", i, resp, err)
		}
	}
}

// TestPoolSequentialRequestsReuseConnections is the dial-per-request
// regression gate: it runs in the default `go test ./internal/dispatch`.
func TestPoolSequentialRequestsReuseConnections(t *testing.T) {
	var d countingDialer
	addr, srv := startServer(t, Config{
		Subscribers: defaultSubs(),
		Backends:    []Backend{{ID: 1, Addr: liveBackend(t, 1)}, {ID: 2, Addr: liveBackend(t, 2)}},
		AcctCycle:   noPolls,
		Dial:        d.dial,
	})
	const n = 200
	warm(t, addr, n)
	if got := d.dials.Load(); got > 2 {
		t.Errorf("%d sequential requests to 2 nodes cost %d backend dials, want at most one per node", n, got)
	}
	dials, reuses := poolCounts(srv)
	if dials != uint64(d.dials.Load()) || dials+reuses != n {
		t.Errorf("counters: dials %d reuses %d, want %d dials and %d exchanges in all", dials, reuses, d.dials.Load(), n)
	}
	waitServed(srv, n)
	if st := srv.Stats(); st.Served != n || st.Errors != 0 || st.Retried != 0 {
		t.Errorf("stats = %+v, want %d served and nothing else", st, n)
	}
}

func TestPoolConcurrentBurstDialsAtMostItsConcurrency(t *testing.T) {
	var d countingDialer
	addr, srv := startServer(t, Config{
		Subscribers: defaultSubs(),
		Backends:    []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		AcctCycle:   noPolls,
		Dial:        d.dial,
	})
	const workers, each = 16, 20
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				resp, err := raceGet(addr, "www.site1.example", "/static/512.html")
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != 200 {
					t.Errorf("status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := d.dials.Load(); got > workers {
		t.Errorf("%d requests at concurrency %d cost %d dials, want at most %d", workers*each, workers, got, workers)
	}
	if got := d.open(); got > workers {
		t.Errorf("%d backend connections open after the burst, want at most %d", got, workers)
	}
	if st := srv.Stats(); st.Errors != 0 || st.Retried != 0 {
		t.Errorf("stats = %+v, want no errors or retries", st)
	}
}

// fakeBackend answers every request 200 with a small body. echo makes it
// agree to keep-alive in its responses; it hangs up after each response
// either way, so with echo every pooled connection is stale when next used.
func fakeBackend(t *testing.T, echo bool) string {
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
			go func(c net.Conn) {
				defer c.Close()
				if _, err := httpwire.ReadRequest(bufio.NewReader(c)); err != nil {
					return
				}
				resp := &httpwire.Response{StatusCode: 200, Header: map[string]string{}, Body: []byte("ok")}
				if echo {
					resp.Header["Connection"] = "Keep-Alive"
				}
				_ = resp.Write(c)
			}(c)
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return ln.Addr().String()
}

func TestPoolOnlyKeepsConnectionsTheBackendAgreedToKeep(t *testing.T) {
	addr, srv := startServer(t, Config{
		Subscribers: defaultSubs(),
		Backends:    []Backend{{ID: 1, Addr: fakeBackend(t, false)}},
		AcctCycle:   noPolls,
	})
	const n = 10
	for i := 0; i < n; i++ {
		if resp, err := get(t, addr, "www.site1.example", "/x"); err != nil || resp.StatusCode != 200 {
			t.Fatalf("get %d: resp=%v err=%v", i, resp, err)
		}
	}
	if dials, reuses := poolCounts(srv); dials != n || reuses != 0 {
		t.Errorf("one-shot backend: dials %d reuses %d, want %d and 0", dials, reuses, n)
	}
	if got := idleCount(srv, 1); got != 0 {
		t.Errorf("%d connections pooled without the backend's keep-alive echo", got)
	}
}

func TestPoolStaleConnectionCostsTheClientNothing(t *testing.T) {
	addr, srv := startServer(t, Config{
		Subscribers: defaultSubs(),
		Backends:    []Backend{{ID: 1, Addr: fakeBackend(t, true)}},
		AcctCycle:   noPolls,
	})
	const n = 10
	for i := 0; i < n; i++ {
		resp, err := get(t, addr, "www.site1.example", "/x")
		if err != nil || resp.StatusCode != 200 || string(resp.Body) != "ok" {
			t.Fatalf("get %d through a stale pooled connection: resp=%v err=%v", i, resp, err)
		}
	}
	// Every request after the first found the pooled connection closed by the
	// backend and repeated the exchange on a fresh dial.
	if dials, reuses := poolCounts(srv); dials != n || reuses != n-1 {
		t.Errorf("dials %d reuses %d, want %d and %d", dials, reuses, n, n-1)
	}
	waitServed(srv, n)
	if st := srv.Stats(); st.Served != n || st.Errors != 0 || st.Retried != 0 {
		t.Errorf("stats = %+v, want %d served, no errors, no retries", st, n)
	}
	snap, _ := srv.BreakerSnapshot(1)
	if snap.State != breaker.Closed || snap.RelayStreak != 0 || snap.Opens != 0 {
		t.Errorf("breaker = %+v, want untouched by stale connections", snap)
	}
}

func TestChaosCrashWithWarmPoolRetriesOntoSurvivor(t *testing.T) {
	addr, srv, chaos, beAddrs := chaosCluster(t, 2, defaultSubs())
	warm(t, addr, 20)
	if idleCount(srv, 1) == 0 {
		t.Fatal("warm-up left no pooled connection to node 1")
	}
	// The crash severs node 1's pooled connections under the dispatcher. A
	// dispatch aimed there finds its connection stale, fails the fresh dial,
	// and only then spends the relay's retry on node 2.
	chaos.Crash(beAddrs[0])
	for i := 0; i < 20; i++ {
		resp, err := get(t, addr, "www.site1.example", "/static/1024.html")
		if err != nil {
			t.Fatalf("get %d during crash: %v", i, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("get %d during crash: status %d, want 200", i, resp.StatusCode)
		}
	}
	st := srv.Stats()
	if st.Errors != 0 {
		t.Errorf("errors = %d with a healthy alternate, want 0", st.Errors)
	}
	if st.Retried == 0 {
		t.Error("no relay ever retried onto the survivor; dead-node dispatches were expected")
	}
	waitFor(t, 2*time.Second, func() bool { return idleCount(srv, 1) == 0 })
}

func TestPoolDrainFlushesIdleConnections(t *testing.T) {
	addr, adminAddr, srv := adminCluster(t, 2, feasibleSubs(), core.Config{})
	warm(t, addr, 20)
	if idleCount(srv, 2) == 0 {
		t.Fatal("warm-up left no pooled connection to node 2")
	}
	if code, res := adminReq(t, adminAddr, "POST", AdminPrefix+"nodes/2/drain", []byte(`{"force":true}`)); code != 200 {
		t.Fatalf("drain = %d %+v", code, res)
	}
	if got := idleCount(srv, 2); got != 0 {
		t.Errorf("%d idle connections to the drained node, want none", got)
	}
	if idleCount(srv, 1) == 0 {
		t.Error("draining node 2 flushed node 1's pool too")
	}
	if tracked, want := trackedBackends(srv), idleCount(srv, 1); tracked != want {
		t.Errorf("%d backend connections tracked, want only node 1's %d idle ones", tracked, want)
	}
}

func TestPoolBreakerOpenFlushesIdleConnections(t *testing.T) {
	addr, srv := startServer(t, Config{
		Subscribers: defaultSubs(),
		Backends:    []Backend{{ID: 1, Addr: liveBackend(t, 1)}, {ID: 2, Addr: liveBackend(t, 2)}},
		AcctCycle:   noPolls,
	})
	warm(t, addr, 20)
	if idleCount(srv, 1) == 0 || idleCount(srv, 2) == 0 {
		t.Fatal("warm-up left a node without a pooled connection")
	}
	for i := 0; i < UnhealthyAfter; i++ {
		srv.noteBreaker(srv.node(1), breaker.Poll, false)
	}
	if snap, _ := srv.BreakerSnapshot(1); snap.State != breaker.Open {
		t.Fatalf("breaker = %+v, want open", snap)
	}
	if got := idleCount(srv, 1); got != 0 {
		t.Errorf("%d idle connections to a node whose breaker opened, want none", got)
	}
	if idleCount(srv, 2) == 0 {
		t.Error("node 1's breaker flushed node 2's pool")
	}
}

func TestPoolCloseLeavesNoBackendConnectionOpen(t *testing.T) {
	var d countingDialer
	addr, srv := startServer(t, Config{
		Subscribers: defaultSubs(),
		Backends:    []Backend{{ID: 1, Addr: liveBackend(t, 1)}, {ID: 2, Addr: liveBackend(t, 2)}},
		AcctCycle:   noPolls,
		Dial:        d.dial,
	})
	warm(t, addr, 20)
	if d.open() == 0 {
		t.Fatal("no pooled connection open before Close; the test would prove nothing")
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if el := time.Since(start); el >= time.Second {
		t.Errorf("Close took %v with only idle pooled connections; nothing should wait on them", el)
	}
	if got := d.open(); got != 0 {
		t.Errorf("%d backend connections still open after Close", got)
	}
}

func TestPoolIdleConnectionsExpireOnTheAccountingTick(t *testing.T) {
	var d countingDialer
	srv, err := New(Config{
		Subscribers: defaultSubs(),
		Backends:    []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		AcctCycle:   20 * time.Millisecond,
		Dial:        d.dial,
		Logger:      log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.idleExpiry = 400 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	addr := ln.Addr().String()

	// Requests spaced inside the expiry keep reusing one connection: parking
	// it again restarts its idle clock.
	for i := 0; i < 5; i++ {
		warm(t, addr, 1)
		time.Sleep(120 * time.Millisecond)
	}
	if dials, _ := poolCounts(srv); dials != 1 {
		t.Errorf("relay dials = %d while the connection never idled past its expiry, want 1", dials)
	}
	// Left alone past the expiry it is closed and forgotten (the polls' own
	// short-lived connections aside, nothing stays open).
	waitFor(t, 2*time.Second, func() bool { return idleCount(srv, 1) == 0 && d.open() == 0 })
	if tracked := trackedBackends(srv); tracked != 0 {
		t.Errorf("%d backend connections still tracked after expiry", tracked)
	}
	warm(t, addr, 1)
	if dials, _ := poolCounts(srv); dials != 2 {
		t.Errorf("relay dials = %d after an expiry, want 2", dials)
	}
}

func TestPoolReapsOldestAndReusesNewest(t *testing.T) {
	var n nodeEntry
	p := &n.pool
	t0 := time.Now()
	conns := make([]net.Conn, 4)
	for i := range conns {
		a, b := net.Pipe()
		t.Cleanup(func() { a.Close(); b.Close() })
		conns[i] = a
		n.park(a, t0.Add(time.Duration(i)*time.Second))
	}
	if got := p.take(); got != conns[3] {
		t.Error("take did not return the most recently parked connection")
	}
	old := p.reap(t0.Add(time.Second))
	if len(old) != 2 || old[0].conn != conns[0] || old[1].conn != conns[1] {
		t.Errorf("reap(t0+1s) returned %d connections, want the two oldest", len(old))
	}
	if got := p.take(); got != conns[2] {
		t.Error("the connection parked after the cutoff did not survive the reap")
	}
	if p.take() != nil || p.reap(t0.Add(time.Hour)) != nil {
		t.Error("pool not empty after taking everything")
	}
	if backendIdleExpiry >= backend.IdleTimeout {
		t.Errorf("idle expiry %v must stay below the backend's idle deadline %v", backendIdleExpiry, backend.IdleTimeout)
	}
}

// TestKeepAliveClientLegFollowsTheClient: the backend leg's keep-alive is the
// dispatcher's own business. What the client asked for — read before the
// relay rewrites Connection for its leg — still decides whether the client
// connection stays open, and the backend's Connection echo never reaches it.
func TestKeepAliveClientLegFollowsTheClient(t *testing.T) {
	tests := []struct {
		name, proto, connection string
		wantOpen                bool
	}{
		{"HTTP/1.0", "HTTP/1.0", "", false},
		{"HTTP/1.0 keep-alive", "HTTP/1.0", "keep-alive", true},
		{"HTTP/1.1", "HTTP/1.1", "", true},
		{"HTTP/1.1 close", "HTTP/1.1", "close", false},
	}
	addr, _ := cluster(t, 2, defaultSubs(), core.Config{})
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			// Twice, so the second exchange runs on a pooled backend
			// connection when the client connection allows one.
			for i := 0; i < 2; i++ {
				_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
				req := &httpwire.Request{Method: "GET", Target: "/static/512.html", Proto: tt.proto, Host: "www.site1.example", Header: map[string]string{}}
				if tt.connection != "" {
					req.Header["Connection"] = tt.connection
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
				if c, ok := resp.Header["Connection"]; ok {
					t.Errorf("request %d: the backend leg's Connection: %s reached the client", i, c)
				}
				if !tt.wantOpen {
					break
				}
			}
			// An open connection parks the dispatcher in its next read, so
			// ours times out; a closed one ends in EOF.
			_ = conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
			_, err = br.ReadByte()
			var ne net.Error
			open := errors.As(err, &ne) && ne.Timeout()
			if open != tt.wantOpen {
				t.Errorf("client connection open = %v after the response (read: %v), want %v", open, err, tt.wantOpen)
			}
		})
	}
}
