package dispatch

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gage/internal/backend"
	"gage/internal/breaker"
	"gage/internal/core"
	"gage/internal/httpwire"
	"gage/internal/qos"
	"gage/internal/telemetry"
)

// adminCluster builds a cluster plus the dedicated control-plane listener —
// the only surface that serves /_gage/admin/* (gaged's adminListen shape).
// It returns the client address, the admin address, and the server.
func adminCluster(t *testing.T, n int, subs []qos.Subscriber, sched core.Config) (string, string, *Server) {
	t.Helper()
	addr, srv := cluster(t, n, subs, sched)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("admin listen: %v", err)
	}
	go func() { _ = srv.ServeAdmin(ln) }()
	return addr, ln.Addr().String(), srv
}

// adminReq issues one control-plane request against addr and decodes the
// adminResult body.
func adminReq(t *testing.T, addr, method, path string, body []byte) (int, adminResult) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatalf("deadline: %v", err)
	}
	req := &httpwire.Request{Method: method, Target: path, Proto: "HTTP/1.0", Host: "admin", Body: body}
	if err := req.Write(conn); err != nil {
		t.Fatalf("write: %v", err)
	}
	resp, err := httpwire.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var res adminResult
	if len(resp.Body) > 0 {
		if err := json.Unmarshal(resp.Body, &res); err != nil {
			t.Fatalf("decode %q: %v", resp.Body, err)
		}
	}
	return resp.StatusCode, res
}

// spawnBackend starts one backend process and returns its address.
func spawnBackend(t *testing.T, id core.NodeID) string {
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

// schedSnapshot captures the scheduler state an infeasible request must not
// disturb.
type schedSnapshot struct {
	Total      qos.GRPS
	Registered int
	Nodes      []core.NodeID
	Dir        []qos.Subscriber
}

func snapshotScheduler(s *Server) schedSnapshot {
	nodes := s.sched.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return schedSnapshot{
		Total:      s.sched.TotalReservation(),
		Registered: s.sched.Registered(),
		Nodes:      nodes,
		Dir:        directorySubs(s.top().dir),
	}
}

// feasibleSubs commits well under the two-default-backend pool's 200 GRPS,
// leaving room for admin-plane grows.
func feasibleSubs() []qos.Subscriber {
	return []qos.Subscriber{
		{ID: "site1", Hosts: []string{"www.site1.example"}, Reservation: 50},
		{ID: "site2", Hosts: []string{"www.site2.example"}, Reservation: 20},
	}
}

func TestAdminSubscriberLifecycle(t *testing.T) {
	addr, adminAddr, srv := adminCluster(t, 2, feasibleSubs(), core.Config{})

	// Before signing: the new host classifies nowhere.
	if resp, err := get(t, addr, "www.site3.example", "/static/512.html"); err != nil || resp.StatusCode != 404 {
		t.Fatalf("pre-create status = %v err = %v, want 404", resp.StatusCode, err)
	}

	body := []byte(`{"id":"site3","hosts":["www.site3.example"],"reservationGRPS":50}`)
	code, res := adminReq(t, adminAddr, "POST", AdminPrefix+"subscribers", body)
	if code != 200 || !res.Accepted {
		t.Fatalf("create = %d %+v, want 200 accepted", code, res)
	}
	if got := srv.sched.TotalReservation(); got != 120 {
		t.Fatalf("total reservation = %v, want 120", got)
	}

	// The signed subscriber serves traffic end to end through the live
	// classifier and scheduler.
	resp, err := get(t, addr, "www.site3.example", "/static/512.html")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("post-create get = %v err = %v, want 200", resp.StatusCode, err)
	}

	// Resize up and verify the scheduler tracks it.
	code, res = adminReq(t, adminAddr, "PUT", AdminPrefix+"subscribers/site3", []byte(`{"reservationGRPS":120}`))
	if code != 200 || !res.Accepted {
		t.Fatalf("resize = %d %+v", code, res)
	}
	if r, ok := srv.sched.Reservation("site3"); !ok || r != 120 {
		t.Fatalf("reservation after resize = %v %v, want 120", r, ok)
	}
	if sub, err := srv.top().dir.Subscriber("site3"); err != nil || sub.Reservation != 120 {
		t.Fatalf("directory after resize = %+v %v, want reservation 120", sub, err)
	}

	// Delete: host stops classifying, scheduler forgets the subscriber.
	code, _ = adminReq(t, adminAddr, "DELETE", AdminPrefix+"subscribers/site3", nil)
	if code != 200 {
		t.Fatalf("delete = %d, want 200", code)
	}
	if _, ok := srv.sched.Reservation("site3"); ok {
		t.Fatal("subscriber survived delete in the scheduler")
	}
	if resp, err := get(t, addr, "www.site3.example", "/static/512.html"); err != nil || resp.StatusCode != 404 {
		t.Fatalf("post-delete status = %v err = %v, want 404", resp.StatusCode, err)
	}
	if code, _ := adminReq(t, adminAddr, "DELETE", AdminPrefix+"subscribers/site3", nil); code != 404 {
		t.Fatalf("second delete = %d, want 404", code)
	}
}

func TestAdminInfeasibleRejectionLeavesStateUnchanged(t *testing.T) {
	// Two default backends sustain 200 GRPS total (2× one CPU-second/s at
	// 10 ms per generic request); defaultSubs commits 700 already, so the
	// pool is overcommitted and ANY grow must be refused.
	_, adminAddr, srv := adminCluster(t, 2, defaultSubs(), core.Config{})
	before := snapshotScheduler(srv)

	code, res := adminReq(t, adminAddr, "POST", AdminPrefix+"subscribers",
		[]byte(`{"id":"greedy","hosts":["g.example"],"reservationGRPS":1000}`))
	if code != 409 {
		t.Fatalf("infeasible create = %d %+v, want 409", code, res)
	}
	if res.Accepted || res.Code != "infeasible" || res.Reason == "" || res.Binding == "" {
		t.Fatalf("decision not structured: %+v", res)
	}

	// Resize of an existing subscriber past capacity must also bounce.
	if code, res = adminReq(t, adminAddr, "PUT", AdminPrefix+"subscribers/site1", []byte(`{"reservationGRPS":5000}`)); code != 409 {
		t.Fatalf("infeasible resize = %d %+v, want 409", code, res)
	}

	after := snapshotScheduler(srv)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("rejected requests mutated scheduler state:\nbefore %+v\nafter  %+v", before, after)
	}
	if _, ok := srv.top().classifier.Classify("g.example", "/"); ok {
		t.Fatal("rejected subscriber classifies")
	}
}

func TestAdminNodeAddAndDrain(t *testing.T) {
	_, adminAddr, srv := adminCluster(t, 2, defaultSubs(), core.Config{})
	beAddr := spawnBackend(t, 3)

	code, res := adminReq(t, adminAddr, "POST", AdminPrefix+"nodes/3/add",
		[]byte(fmt.Sprintf(`{"addr":%q}`, beAddr)))
	if code != 200 || !res.Accepted {
		t.Fatalf("node add = %d %+v", code, res)
	}
	nodes := srv.sched.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	if !reflect.DeepEqual(nodes, []core.NodeID{1, 2, 3}) {
		t.Fatalf("nodes = %v, want [1 2 3]", nodes)
	}
	snap, ok := srv.BreakerSnapshot(3)
	if !ok {
		t.Fatal("no breaker for added node")
	}
	if snap.Weight >= 1 {
		t.Fatalf("added node starts at weight %v, want slow-start bottom < 1", snap.Weight)
	}
	// The accounting loop ticks the breaker each cycle; the weight must ramp
	// to full.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap, _ = srv.BreakerSnapshot(3); snap.Weight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("weight stuck at %v, want ramp to 1", snap.Weight)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, _ := adminReq(t, adminAddr, "POST", AdminPrefix+"nodes/3/add", []byte(fmt.Sprintf(`{"addr":%q}`, beAddr))); code != 409 {
		t.Fatalf("duplicate add = %d, want 409", code)
	}

	// Drain 3: with 700 GRPS committed against a 300-capacity pool the
	// feasibility check refuses, so force it (the drill for graceful
	// scale-in under overcommit).
	code, res = adminReq(t, adminAddr, "POST", AdminPrefix+"nodes/3/drain", nil)
	if code != 409 || res.Accepted {
		t.Fatalf("drain of needed capacity = %d %+v, want 409", code, res)
	}
	code, res = adminReq(t, adminAddr, "POST", AdminPrefix+"nodes/3/drain", []byte(`{"force":true}`))
	if code != 200 {
		t.Fatalf("forced drain = %d %+v", code, res)
	}
	if srv.sched.NodeEnabled(3) {
		t.Fatal("drained node still enabled")
	}
	// The per-cycle breaker tick must NOT ramp the drained node back up:
	// applyWeight pins draining nodes at zero.
	time.Sleep(200 * time.Millisecond)
	if srv.sched.NodeEnabled(3) {
		t.Fatal("drained node ramped back into rotation")
	}
	if code, _ := adminReq(t, adminAddr, "POST", AdminPrefix+"nodes/9/drain", nil); code != 404 {
		t.Fatalf("drain unknown node = %d, want 404", code)
	}
}

// TestAdminSwapsCarryRecords: whatever an admin mutation publishes, every
// node and subscriber that survives it keeps the stateful parts of its record
// — breaker streaks, pooled connections, the accounting snapshot and the
// latency histograms outlive the swap because they are the same objects.
func TestAdminSwapsCarryRecords(t *testing.T) {
	_, adminAddr, srv := adminCluster(t, 2, feasibleSubs(), core.Config{})
	type nodeParts struct {
		breaker  *breaker.Breaker
		acct     *nodeAcct
		pool     *connPool
		relayLat *telemetry.Histogram
	}
	parts := func() (map[core.NodeID]nodeParts, map[qos.SubscriberID]*telemetry.Histogram) {
		nodes, subs := map[core.NodeID]nodeParts{}, map[qos.SubscriberID]*telemetry.Histogram{}
		for id, n := range srv.top().nodes {
			nodes[id] = nodeParts{n.breaker, &n.acct, &n.pool, n.relayLat}
		}
		for id, ent := range srv.top().subs {
			subs[id] = ent.reqLat
		}
		return nodes, subs
	}
	for _, m := range []struct {
		name, method, path, body string
		nodes, subs              int // membership after the mutation
	}{
		{"create", "POST", "subscribers", `{"id":"site9","hosts":["www.site9.example"],"reservationGRPS":5}`, 2, 3},
		{"resize", "PUT", "subscribers/site1", `{"reservationGRPS":40}`, 2, 3},
		{"delete", "DELETE", "subscribers/site2", ``, 2, 2},
		{"node add", "POST", "nodes/3/add", fmt.Sprintf(`{"addr":%q}`, spawnBackend(t, 3)), 3, 2},
		{"node drain", "POST", "nodes/2/drain", `{}`, 3, 2},
	} {
		nodesBefore, subsBefore := parts()
		if code, res := adminReq(t, adminAddr, m.method, AdminPrefix+m.path, []byte(m.body)); code != 200 {
			t.Fatalf("%s = %d %+v, want 200", m.name, code, res)
		}
		nodesAfter, subsAfter := parts()
		if len(nodesAfter) != m.nodes || len(subsAfter) != m.subs {
			t.Fatalf("%s left %d nodes and %d subscribers, want %d and %d", m.name, len(nodesAfter), len(subsAfter), m.nodes, m.subs)
		}
		for id, now := range nodesAfter {
			if was, ok := nodesBefore[id]; ok && now != was {
				t.Errorf("%s replaced node %d's record parts: %+v, were %+v", m.name, id, now, was)
			}
		}
		for id, now := range subsAfter {
			if was, ok := subsBefore[id]; ok && now != was {
				t.Errorf("%s replaced subscriber %s's request histogram", m.name, id)
			}
		}
	}
}

// TestAdminDrainRacesSettlingRelays drains a node while relays to it are
// waiting for its reply. Each resolved the node's record before the drain, so
// the draining mark must reach them through that record: when they settle,
// after the drain has flushed the pool, none may park its connection there,
// and the accounting tick's re-apply must leave the weight at zero.
func TestAdminDrainRacesSettlingRelays(t *testing.T) {
	const clients = 8
	arrived, gate := make(chan struct{}, clients), make(chan struct{})
	// Node 1 holds every relayed request until gate closes and then agrees
	// to keep the connection, so a settle that may park it will.
	node1 := scriptedBackend(t, func(c *net.TCPConn, head string) {
		resp := &httpwire.Response{StatusCode: 200, Header: map[string]string{"Connection": "keep-alive"}, Body: []byte("held, then served")}
		if strings.HasPrefix(head, "GET "+backend.ReportPath) {
			resp.Body = []byte(`{"node":1}`)
		} else {
			arrived <- struct{}{}
			<-gate
		}
		_ = resp.Write(c)
	})
	var drained atomic.Bool
	var pollsSinceDrain atomic.Int64
	addr, srv := startTB(t, Config{
		Subscribers: feasibleSubs(),
		Backends:    []Backend{{ID: 1, Addr: node1}, {ID: 2, Addr: liveBackend(t, 2)}},
		AcctCycle:   20 * time.Millisecond,
		// A drained node is sent no relay, so every dial to it after the
		// drain is an accounting poll, launched by a tick that has just
		// re-applied the node's weight.
		Dial: func(network, a string, timeout time.Duration) (net.Conn, error) {
			if a == node1 && drained.Load() {
				pollsSinceDrain.Add(1)
			}
			return net.DialTimeout(network, a, timeout)
		},
	})
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("admin listen: %v", err)
	}
	go func() { _ = srv.ServeAdmin(adminLn) }()

	statuses := make([]<-chan int, clients)
	for i := range statuses {
		statuses[i] = getAsync(t, addr, "www.site1.example")
	}
	// Every request is now either served by node 2 or held by node 1.
	waitFor(t, 5*time.Second, func() bool { return int(srv.Stats().Served)+len(arrived) == clients })
	if len(arrived) == 0 {
		t.Fatal("no relay reached node 1")
	}
	if code, res := adminReq(t, adminLn.Addr().String(), "POST", AdminPrefix+"nodes/1/drain", nil); code != 200 {
		t.Fatalf("drain = %d %+v", code, res)
	}
	drained.Store(true)
	close(gate)
	for i, status := range statuses {
		if code := <-status; code != 200 {
			t.Errorf("request %d: status %d, want 200", i, code)
		}
	}
	// A reply the reader holds whole is settled before the client sees it.
	if n := idleCount(srv, 1); n != 0 {
		t.Errorf("%d connections parked in the drained node's pool", n)
	}
	// Two polls: the tick that launched the second began after the drain.
	waitFor(t, 5*time.Second, func() bool { return pollsSinceDrain.Load() >= 2 })
	if w, _ := srv.sched.NodeWeight(1); w != 0 {
		t.Errorf("drained node's weight = %v after an accounting tick, want 0", w)
	}
}

func TestAdminDecoderRejections(t *testing.T) {
	_, adminAddr, srv := adminCluster(t, 1, defaultSubs(), core.Config{})
	before := snapshotScheduler(srv)
	cases := []struct {
		name, method, path string
		body               string
		want               int
	}{
		{"malformed json", "POST", AdminPrefix + "subscribers", `{"id":`, 400},
		{"unknown field", "POST", AdminPrefix + "subscribers", `{"id":"x","hosts":["h"],"reservation":5}`, 400},
		{"empty id", "POST", AdminPrefix + "subscribers", `{"hosts":["h"],"reservationGRPS":5}`, 400},
		{"no hosts", "POST", AdminPrefix + "subscribers", `{"id":"x","reservationGRPS":5}`, 400},
		{"negative reservation", "POST", AdminPrefix + "subscribers", `{"id":"x","hosts":["h"],"reservationGRPS":-1}`, 400},
		{"oversized reservation", "POST", AdminPrefix + "subscribers", `{"id":"x","hosts":["h"],"reservationGRPS":1e12}`, 400},
		{"duplicate id", "POST", AdminPrefix + "subscribers", `{"id":"site1","hosts":["other.example"],"reservationGRPS":1}`, 409},
		{"duplicate host", "POST", AdminPrefix + "subscribers", `{"id":"x","hosts":["www.site1.example"],"reservationGRPS":1}`, 409},
		{"resize bad body", "PUT", AdminPrefix + "subscribers/site1", `nope`, 400},
		{"resize unknown sub", "PUT", AdminPrefix + "subscribers/ghost", `{"reservationGRPS":1}`, 404},
		{"node add no addr", "POST", AdminPrefix + "nodes/5/add", `{}`, 400},
		{"node add both capacities", "POST", AdminPrefix + "nodes/5/add", `{"addr":"x","capacityGRPS":5,"cpuMillisPerSec":100}`, 400},
		{"node bad id", "POST", AdminPrefix + "nodes/abc/add", `{"addr":"x"}`, 400},
		{"unknown route", "POST", AdminPrefix + "frobnicate", ``, 404},
	}
	for _, tc := range cases {
		if code, res := adminReq(t, adminAddr, tc.method, tc.path, []byte(tc.body)); code != tc.want {
			t.Errorf("%s: status = %d %+v, want %d", tc.name, code, res, tc.want)
		}
	}
	if after := snapshotScheduler(srv); !reflect.DeepEqual(before, after) {
		t.Fatalf("rejected requests mutated state:\nbefore %+v\nafter  %+v", before, after)
	}
}

func TestServeAdminSeparateListener(t *testing.T) {
	// Recorder and bus on, so that all five read endpoints have something to
	// answer with.
	addr, srv := startTB(t, Config{
		Subscribers:   feasibleSubs(),
		Backends:      []Backend{{ID: 1, Addr: liveBackend(t, 1)}, {ID: 2, Addr: liveBackend(t, 2)}},
		CycleRingSize: 16,
		EventRingSize: 16,
	})
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("admin listen: %v", err)
	}
	go func() { _ = srv.ServeAdmin(adminLn) }()
	adminAddr := adminLn.Addr().String()

	code, res := adminReq(t, adminAddr, "POST", AdminPrefix+"subscribers",
		[]byte(`{"id":"via-admin","hosts":["va.example"],"reservationGRPS":1}`))
	if code != 200 || !res.Accepted {
		t.Fatalf("create via admin listener = %d %+v", code, res)
	}
	// Both listeners answer every read endpoint, from one route table.
	for _, path := range []string{StatsPath, MetricsPath, TracePath, CyclesPath, EventsPath} {
		for name, a := range map[string]string{"client": addr, "admin": adminAddr} {
			if resp, err := get(t, a, "admin", path); err != nil || resp.StatusCode != 200 {
				t.Errorf("%s via %s listener = %v err = %v, want 200", path, name, resp, err)
			}
		}
	}
	if resp, err := get(t, adminAddr, "admin", StatsPath); err != nil || resp.StatusCode != 200 {
		t.Fatalf("stats via admin listener = %v err = %v, want 200", resp.StatusCode, err)
	}
	// Client traffic must not relay through the control-plane listener.
	if resp, err := get(t, adminAddr, "www.site1.example", "/static/512.html"); err != nil || resp.StatusCode != 404 {
		t.Fatalf("relay via admin listener = %v err = %v, want 404", resp.StatusCode, err)
	}
	// And the mutation surface must never answer on the data-plane port: a
	// subscriber's client reaching /_gage/admin/* gets a 404, not a control
	// plane.
	code, res = adminReq(t, addr, "DELETE", AdminPrefix+"subscribers/via-admin", nil)
	if code != 404 {
		t.Fatalf("admin op via client listener = %d %+v, want 404", code, res)
	}
	if _, ok := srv.sched.Reservation("via-admin"); !ok {
		t.Fatal("client-port admin request mutated scheduler state")
	}
	if code, _ := adminReq(t, addr, "POST", AdminPrefix+"subscribers", []byte(`{"id":"sneak","hosts":["s.example"],"reservationGRPS":1}`)); code != 404 {
		t.Fatalf("admin create via client listener = %d, want 404", code)
	}
}

// TestCloseUnblocksIdleAdminConnection pins the shutdown path: an idle
// keep-alive control-plane connection must be nudged (deadline zap) and, if
// need be, force-closed by Close like any client connection — not sat out
// for ClientIdleTimeout.
func TestCloseUnblocksIdleAdminConnection(t *testing.T) {
	_, adminAddr, srv := adminCluster(t, 1, feasibleSubs(), core.Config{})
	conn, err := net.DialTimeout("tcp", adminAddr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	req := &httpwire.Request{Method: "GET", Target: StatsPath, Proto: "HTTP/1.1", Host: "admin"}
	if err := req.Write(conn); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := httpwire.ReadResponse(bufio.NewReader(conn)); err != nil {
		t.Fatalf("read: %v", err)
	}
	// The connection now idles in the admin keep-alive loop.
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("Close hung on an idle admin keep-alive connection")
	}
}

// FuzzAdminDecoders hunts for panics and validation escapes in the admin
// API's JSON request decoders: any input must either fail cleanly or produce
// a value that passes the same validation the apply path trusts.
func FuzzAdminDecoders(f *testing.F) {
	seeds := []string{
		`{"id":"site9","hosts":["www.site9.example"],"reservationGRPS":25,"queueLimit":64,"group":"gold"}`,
		`{"reservationGRPS":120}`,
		`{"addr":"127.0.0.1:9000","capacityGRPS":100}`,
		`{"addr":"be1:80","cpuMillisPerSec":1000,"diskMillisPerSec":1000,"netBytesPerSec":12500000}`,
		`{"force":true}`,
		`{}`,
		``,
		`{"id":""}`,
		`{"id":"dup","hosts":["h","h"],"reservationGRPS":1}`,
		`{"id":"x","hosts":[],"reservationGRPS":1}`,
		`{"id":"x","hosts":["h"],"reservationGRPS":-5}`,
		`{"id":"x","hosts":["h"],"reservationGRPS":1e300}`,
		`{"id":"x","hosts":["h"],"reservationGRPS":5,"queueLimit":-1}`,
		`{"id":"x","hosts":[":80"],"reservationGRPS":5}`,
		`{"reservationGRPS":"NaN"}`,
		`{"addr":"","capacityGRPS":5}`,
		`{"addr":"x","capacityGRPS":5,"cpuMillisPerSec":100}`,
		`{"unknown":1}`,
		`[1,2,3]`,
		`{"id":"x","hosts":["h"],"reservationGRPS":5}{"id":"y"}`,
		"{\"id\":\"\\u0000\",\"hosts\":[\"h\"],\"reservationGRPS\":1}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if sub, err := decodeSubscriberCreate(data); err == nil {
			if verr := sub.Validate(); verr != nil {
				t.Fatalf("decoder accepted a subscriber Validate rejects: %+v: %v", sub, verr)
			}
			if len(sub.Hosts) == 0 {
				t.Fatalf("decoder accepted a hostless subscriber: %+v", sub)
			}
			if sub.Reservation < 0 || sub.Reservation > MaxReservationGRPS {
				t.Fatalf("decoder accepted out-of-range reservation %v", sub.Reservation)
			}
		}
		if res, err := decodeSubscriberResize(data); err == nil {
			if res < 0 || res > MaxReservationGRPS {
				t.Fatalf("resize decoder accepted out-of-range reservation %v", res)
			}
		}
		if addr, capacity, _, err := decodeNodeAdd(data); err == nil {
			if addr == "" {
				t.Fatal("node-add decoder accepted empty addr")
			}
			if capacity.AnyNegative() || capacity.IsZero() {
				t.Fatalf("node-add decoder accepted non-positive capacity %+v", capacity)
			}
		}
		_, _ = decodeNodeDrain(data)
	})
}
