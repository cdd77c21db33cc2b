package dispatch

import (
	"io"
	"log"
	"net"
	"testing"
	"time"

	"gage/internal/backend"
	"gage/internal/core"
	"gage/internal/faults"
	"gage/internal/qos"
)

// chaosCluster is like cluster but routes every backend dial through a
// faults.Chaos switchboard and gates each backend's listener behind it, so a
// test can fail-stop a backend by address without touching the process.
func chaosCluster(t *testing.T, n int, subs []qos.Subscriber) (string, *Server, *faults.Chaos, []string) {
	t.Helper()
	chaos := faults.NewChaos()
	backends := make([]Backend, 0, n)
	addrs := make([]string, 0, n)
	for i := 1; i <= n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("backend listen: %v", err)
		}
		be := backend.New(backend.Config{Node: core.NodeID(i)})
		go func() { _ = be.Serve(chaos.Listener(ln)) }()
		t.Cleanup(func() { _ = be.Close() })
		backends = append(backends, Backend{ID: core.NodeID(i), Addr: ln.Addr().String()})
		addrs = append(addrs, ln.Addr().String())
	}
	srv, err := New(Config{
		Subscribers:  subs,
		Backends:     backends,
		AcctCycle:    50 * time.Millisecond,
		RetryBackoff: 5 * time.Millisecond,
		Dial:         chaos.Dial,
		Logger:       log.New(io.Discard, "", 0),
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
	return ln.Addr().String(), srv, chaos, addrs
}

// waitNodeEnabled polls until the scheduler's view of the node matches want.
func waitNodeEnabled(t *testing.T, srv *Server, id core.NodeID, want bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Scheduler().NodeEnabled(id) == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("node %d never reached enabled=%v", id, want)
}

func TestChaosScriptedBackendCrashAndRecovery(t *testing.T) {
	addr, srv, chaos, beAddrs := chaosCluster(t, 2, defaultSubs())

	// Healthy baseline.
	resp, err := get(t, addr, "www.site1.example", "/static/1024.html")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthy get: resp=%v err=%v", resp, err)
	}

	// Fail-stop backend 1. The accounting poller's dials now fail, so the
	// failure streak must cross UnhealthyAfter and disable the node.
	chaos.Crash(beAddrs[0])
	waitNodeEnabled(t, srv, 1, false)

	// While node 1 is down every request must still be served — either
	// dispatched straight to node 2, or redispatched there after a failed
	// dial — and never answered 502.
	for i := 0; i < 10; i++ {
		resp, err := get(t, addr, "www.site1.example", "/static/1024.html")
		if err != nil {
			t.Fatalf("get %d during crash: %v", i, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("get %d during crash: status %d, want 200", i, resp.StatusCode)
		}
	}
	if st := srv.Stats(); st.Errors != 0 {
		t.Errorf("errors = %d during single-node crash with a healthy alternate, want 0", st.Errors)
	}

	// Recovery: the first successful poll clears the streak and re-enables
	// the node, and requests flow again.
	chaos.Recover(beAddrs[0])
	waitNodeEnabled(t, srv, 1, true)
	resp, err = get(t, addr, "www.site1.example", "/static/1024.html")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("post-recovery get: resp=%v err=%v", resp, err)
	}
}

func TestChaosRelayRetriesOntoSurvivor(t *testing.T) {
	addr, srv, chaos, beAddrs := chaosCluster(t, 2, defaultSubs())

	// Crash node 1 and immediately drive requests, before the poller's
	// failure streak can disable it: dispatch decisions for node 1 hit the
	// dead dial and must be redispatched to node 2.
	chaos.Crash(beAddrs[0])
	served := 0
	for i := 0; i < 20; i++ {
		resp, err := get(t, addr, "www.site1.example", "/static/1024.html")
		if err == nil && resp.StatusCode == 200 {
			served++
		}
	}
	st := srv.Stats()
	if served != 20 {
		t.Errorf("served %d/20 requests during un-detected crash (stats %+v)", served, st)
	}
	if st.Retried == 0 {
		t.Error("no relay ever retried onto the survivor; dead-node dispatches were expected")
	}
}
