package dispatch

import (
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gage/internal/backend"
	"gage/internal/core"
	"gage/internal/qos"
)

// tierSubs is a two-group population for partition tests.
func tierSubs() []qos.Subscriber {
	return []qos.Subscriber{
		{ID: "a1", Hosts: []string{"a1.example"}, Reservation: 100, QueueLimit: 64, Group: "tierA"},
		{ID: "b1", Hosts: []string{"b1.example"}, Reservation: 100, QueueLimit: 64, Group: "tierB"},
	}
}

// frontierCluster is cluster() with a Config hook, for wiring Owns/Fence
// and starved backends.
func frontierCluster(t *testing.T, n int, subs []qos.Subscriber, mutate func(*Config)) (string, *Server) {
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
	cfg := Config{
		Subscribers: subs,
		Backends:    backends,
		AcctCycle:   50 * time.Millisecond,
		Logger:      log.New(io.Discard, "", 0),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
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

func TestOwnsRefusesForeignGroups(t *testing.T) {
	addr, srv := frontierCluster(t, 1, tierSubs(), func(cfg *Config) {
		cfg.Owns = func(group string) bool { return group == "tierA" }
	})
	resp, err := get(t, addr, "b1.example", "/static/64.html")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if resp.StatusCode != 503 {
		t.Fatalf("foreign-group status = %d, want 503", resp.StatusCode)
	}
	resp, err = get(t, addr, "a1.example", "/static/64.html")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("owned-group status = %d, want 200", resp.StatusCode)
	}
	waitServed(srv, 1)
	st := srv.Stats()
	if st.NotOwned != 1 {
		t.Fatalf("notOwned = %d, want 1", st.NotOwned)
	}
	if st.Served != 1 {
		t.Fatalf("served = %d, want 1", st.Served)
	}
	// Refused requests never touched the scheduler.
	if qlen := srv.Scheduler().QueueLen("b1"); qlen != 0 {
		t.Fatalf("foreign subscriber queued %d requests on a non-owner", qlen)
	}
}

func TestFenceRefusesDeposedDispatchAndReclaimsCharge(t *testing.T) {
	var deposed atomic.Bool
	addr, srv := frontierCluster(t, 1, tierSubs(), func(cfg *Config) {
		cfg.Fence = func(group string) bool { return !deposed.Load() }
	})

	deposed.Store(true)
	resp, err := get(t, addr, "a1.example", "/static/64.html")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if resp.StatusCode != 503 {
		t.Fatalf("deposed status = %d, want 503", resp.StatusCode)
	}
	if st := srv.Stats(); st.Fenced != 1 || st.Served != 0 {
		t.Fatalf("stats after fence = %+v, want fenced=1 served=0", st)
	}
	// The fenced dispatch's charge was reclaimed: the node carries no
	// outstanding load, so an un-deposed front end serves immediately.
	if out, ok := srv.Scheduler().Outstanding(1); !ok || !out.IsZero() {
		t.Fatalf("outstanding after fence = %v (ok=%v), want zero", out, ok)
	}
	deposed.Store(false)
	resp, err = get(t, addr, "a1.example", "/static/64.html")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("post-recovery status = %d, want 200", resp.StatusCode)
	}
}

// TestCloseHandsBackMigratingQueued is the takeover-drain regression test:
// requests still queued for a migrating partition at Close are withdrawn
// through the pendingConn CAS and returned from Handoffs as redispatchable,
// not dispatched from the deposed owner and not counted shed or abandoned.
func TestCloseHandsBackMigratingQueued(t *testing.T) {
	// A starved backend (nanoseconds of capacity) keeps every request
	// queued: the admission bound rejects all dispatch, so the queue holds
	// until Close.
	addr, srv := frontierCluster(t, 1, tierSubs(), func(cfg *Config) {
		cfg.Backends[0].Capacity = qos.Vector{CPUTime: time.Nanosecond}
		cfg.QueueTimeout = 30 * time.Second
		cfg.DrainTimeout = 200 * time.Millisecond
	})

	const n = 4
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := get(t, addr, "a1.example", "/static/64.html")
			if err == nil {
				codes[i] = resp.StatusCode
			}
		}(i)
	}
	// Wait for all requests to be queued in the scheduler.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Scheduler().QueueLen("a1") < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests queued", srv.Scheduler().QueueLen("a1"), n)
		}
		time.Sleep(5 * time.Millisecond)
	}

	srv.SetMigrating("tierA")
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()

	handoffs := srv.Handoffs()
	if len(handoffs) != n {
		t.Fatalf("handoffs = %d, want %d", len(handoffs), n)
	}
	seen := make(map[uint64]bool, n)
	for _, h := range handoffs {
		if h.Group != "tierA" || h.Subscriber != "a1" {
			t.Fatalf("handoff %+v, want group tierA subscriber a1", h)
		}
		if h.Method != "GET" || h.Target != "/static/64.html" || h.Host != "a1.example" {
			t.Fatalf("handoff lost request identity: %+v", h)
		}
		if seen[h.ID] {
			t.Fatalf("request %d handed off twice", h.ID)
		}
		seen[h.ID] = true
	}
	st := srv.Stats()
	if st.HandedOff != n {
		t.Fatalf("handedOff = %d, want %d", st.HandedOff, n)
	}
	if st.Shed != 0 || st.Abandoned != 0 {
		t.Fatalf("migrating backlog leaked into shed=%d abandoned=%d", st.Shed, st.Abandoned)
	}
	for i, code := range codes {
		if code != 503 {
			t.Fatalf("client %d got status %d, want 503", i, code)
		}
	}
}

// TestCloseWithoutMigrationKeepsDrainBehaviour pins the degenerate path: no
// SetMigrating call means Close drains exactly as before — queued requests
// of every group are abandoned, none handed off.
func TestCloseWithoutMigrationKeepsDrainBehaviour(t *testing.T) {
	addr, srv := frontierCluster(t, 1, tierSubs(), func(cfg *Config) {
		cfg.Backends[0].Capacity = qos.Vector{CPUTime: time.Nanosecond}
		cfg.QueueTimeout = 30 * time.Second
		cfg.DrainTimeout = 100 * time.Millisecond
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = get(t, addr, "a1.example", "/static/64.html")
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Scheduler().QueueLen("a1") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("request never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	st := srv.Stats()
	if st.HandedOff != 0 || len(srv.Handoffs()) != 0 {
		t.Fatalf("unmigrated close handed off %d requests", st.HandedOff)
	}
	if st.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", st.Abandoned)
	}
}
