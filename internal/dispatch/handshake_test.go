package dispatch

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"testing"
	"time"

	"gage/internal/core"
	"gage/internal/httpwire"
	"gage/internal/qos"
)

// Every wire any test of this package releases is held to the handshake rule:
// the handler has received every value sent on its record's channel. And every
// message that is read into again has its old head scribbled first, so a
// string kept past its request reads as 0xFF bytes, not as the look-alike
// request that followed it.
func TestMain(m *testing.M) {
	putWireCheck = func(w *wire) {
		if len(w.pc.node) != 0 {
			panic("dispatch: wire released with a value left on its record's node channel")
		}
	}
	httpwire.ScribbleStaleHeads.Store(true)
	os.Exit(m.Run())
}

// keepHeads switches the scribble hook off for a test or benchmark that
// counts allocations: a scribbled head is replaced by a fresh buffer.
func keepHeads(tb testing.TB) {
	httpwire.ScribbleStaleHeads.Store(false)
	tb.Cleanup(func() { httpwire.ScribbleStaleHeads.Store(true) })
}

// handshakeServer is a dispatcher that is never served: the test is its tick
// loop, its admin plane and its handlers.
func handshakeServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New(Config{
		Subscribers: tierSubs(),
		Backends:    []Backend{{ID: 1, Addr: "127.0.0.1:1"}},
		Logger:      log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

// withdrawers are the three parties that can take a waiting request from its
// handler. Each take removes request 1 (subscriber a1, group tierA) from the
// scheduler and returns the rest of what that party does: its claim on the
// request's record and, if the claim holds, its one send.
var withdrawers = []struct {
	name string
	take func(t *testing.T, srv *Server) (rest func())
}{
	{"deliver", func(t *testing.T, srv *Server) func() {
		ds := srv.sched.Tick()
		if len(ds) != 1 || ds[0].Req.ID != 1 {
			t.Fatalf("tick dispatched %+v, want request 1", ds)
		}
		if out, _ := srv.sched.Outstanding(1); out.IsZero() {
			t.Fatal("a dispatched request holds no charge on its node")
		}
		return func() { srv.deliver(ds[0]) }
	}},
	{"admin delete", func(t *testing.T, srv *Server) func() {
		orphans, err := srv.sched.RemoveSubscriber("a1")
		if err != nil || len(orphans) != 1 {
			t.Fatalf("RemoveSubscriber: %d orphans, %v, want request 1", len(orphans), err)
		}
		return func() { srv.refuseOrphans(orphans) }
	}},
	{"hand-off", func(t *testing.T, srv *Server) func() {
		orphans, err := srv.sched.RemoveGroup("tierA")
		if err != nil || len(orphans) != 1 {
			t.Fatalf("RemoveGroup: %d orphans, %v, want request 1", len(orphans), err)
		}
		return func() { srv.handOff("tierA", orphans) }
	}},
}

// TestStaleWithdrawerCannotClaimRefilledRecord: a withdrawer holds request A —
// already out of the scheduler — while A's handler gives it up and its
// connection's record moves on to request B. The stale party then runs. It
// must not touch B: a claim that forgot the request id would hand B a
// decision, or a refusal, that was A's.
func TestStaleWithdrawerCannotClaimRefilledRecord(t *testing.T) {
	for _, tc := range withdrawers {
		t.Run(tc.name, func(t *testing.T) {
			srv := handshakeServer(t)
			pc := &newWire().pc
			enqueue(t, srv, pc, 1, "a1")
			stale := tc.take(t, srv)
			srv.abandon(pc) // A's handler wins: nothing will be sent for A
			enqueue(t, srv, pc, 2, "b1")
			stale()

			if got, want := pc.state.Load(), uint64(2<<2|pcWaiting); got != want {
				t.Errorf("record state = %#x, want %#x: request 2 still waiting", got, want)
			}
			if n := len(pc.node); n != 0 {
				t.Fatalf("%d value on the record's channel, want none: request 2's handler would read it as its own", n)
			}
			// A's charge is gone, and gone once: there is nothing left to release.
			if out, _ := srv.sched.Outstanding(1); !out.IsZero() {
				t.Errorf("outstanding = %v, want zero: request 1's charge was not reclaimed", out)
			}
			if srv.sched.ReleaseDispatch("a1", 1, 1) {
				t.Error("request 1's charge was still there to release")
			}
			if a, b := srv.sched.QueueLen("a1"), srv.sched.QueueLen("b1"); a != 0 || b != 1 {
				t.Errorf("queued: a1 %d, b1 %d, want request 2 alone", a, b)
			}
			if st := srv.Stats(); st.Abandoned != 1 || st.DispatchedAtTick != 0 || st.HandedOff != 0 || len(srv.Handoffs()) != 0 {
				t.Errorf("stats = %+v, handoffs %v: want request 1 abandoned and nothing else", st, srv.Handoffs())
			}

			// B is dispatched by the next tick, once.
			ds := srv.sched.Tick()
			if len(ds) != 1 || ds[0].Req.ID != 2 {
				t.Fatalf("next tick dispatched %+v, want request 2", ds)
			}
			srv.deliver(ds[0])
			if node := <-pc.node; node != ds[0].Node || pc.status() != pcDispatched {
				t.Errorf("request 2 got node %d in state %d, want node %d dispatched", node, pc.status(), ds[0].Node)
			}
			if n := len(pc.node); n != 0 {
				t.Errorf("%d value left on the channel after request 2's decision", n)
			}
			if st := srv.Stats(); st.DispatchedAtTick != 1 {
				t.Errorf("dispatched at tick = %d, want 1", st.DispatchedAtTick)
			}
		})
	}
}

// TestAbandonTakesTheValueItIsOwed: a handler that gives up a request a
// withdrawer has just taken receives that party's one value, so that its
// record's channel is empty for the next request. A tick's decision is undone
// and counted abandoned; an admin delete's or the migration sweep's sentinel
// is only consumed — the request was settled, and left no charge to release.
func TestAbandonTakesTheValueItIsOwed(t *testing.T) {
	for _, tc := range withdrawers {
		t.Run(tc.name, func(t *testing.T) {
			srv := handshakeServer(t)
			pc := &newWire().pc
			enqueue(t, srv, pc, 1, "a1")
			tc.take(t, srv)()
			if n := len(pc.node); n != 1 {
				t.Fatalf("%d values sent for the withdrawn request, want one", n)
			}
			srv.abandon(pc)
			if n := len(pc.node); n != 0 {
				t.Errorf("%d value left on the channel: the next request on the record would take it for a dispatch", n)
			}
			want := uint64(0)
			if tc.name == "deliver" {
				want = 1
			}
			if st := srv.Stats(); st.Abandoned != want {
				t.Errorf("abandoned = %d, want %d", st.Abandoned, want)
			}
			if out, _ := srv.sched.Outstanding(1); !out.IsZero() {
				t.Errorf("outstanding = %v, want zero", out)
			}
		})
	}
}

// keepAliveClient is one persistent client connection.
type keepAliveClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialKeepAlive(t *testing.T, addr string) *keepAliveClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
	return &keepAliveClient{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (c *keepAliveClient) send(host string) {
	c.t.Helper()
	req := &httpwire.Request{Method: "GET", Target: "/static/512.html", Proto: "HTTP/1.1", Host: host}
	if err := req.Write(c.conn); err != nil {
		c.t.Fatalf("write: %v", err)
	}
}

// status reads one response and returns its status code.
func (c *keepAliveClient) status() int {
	c.t.Helper()
	resp, err := httpwire.ReadResponse(c.br)
	if err != nil {
		c.t.Fatalf("read: %v (framing corrupted?)", err)
	}
	return resp.StatusCode
}

// queuedThenServed sends a request that has to wait in sub's queue, lifts the
// park for it and wants a 200. A value left over on the connection's record
// would be taken by this request's handler as its dispatch the moment it
// started to wait, and relayed to a node nobody chose.
func (c *keepAliveClient) queuedThenServed(srv *Server, host string, sub qos.SubscriberID, release func()) {
	c.t.Helper()
	c.send(host)
	waitQueued(c.t, srv, sub)
	release()
	if code := c.status(); code != 200 {
		c.t.Fatalf("request after the refusal, same connection: status %d, want 200", code)
	}
}

// waitBooksClosed waits for the scheduler to hold nothing: no queue entry and
// no charge (a served request's settles with the next accounting report).
func waitBooksClosed(t *testing.T, srv *Server, subs ...qos.SubscriberID) {
	t.Helper()
	waitFor(t, 3*time.Second, func() bool {
		for _, sub := range subs {
			if srv.sched.QueueLen(sub) != 0 {
				return false
			}
		}
		out, _ := srv.sched.Outstanding(1)
		return out.IsZero()
	})
}

// TestAdminDeleteQueuedThenServeOnSameConnection: a keep-alive client whose
// queued request is withdrawn by the delete of its subscriber gets its 503,
// and its next request — another subscriber's, same connection, same record —
// waits for and gets a decision of its own.
func TestAdminDeleteQueuedThenServeOnSameConnection(t *testing.T) {
	addr, adminAddr, srv := adminCluster(t, 1, feasibleSubs(), core.Config{})
	release := park(srv)
	c := dialKeepAlive(t, addr)
	c.send("www.site1.example")
	waitQueued(t, srv, "site1")
	if code, res := adminReq(t, adminAddr, "DELETE", AdminPrefix+"subscribers/site1", nil); code != 200 {
		t.Fatalf("delete: status %d, result %+v", code, res)
	}
	if code := c.status(); code != 503 {
		t.Fatalf("request withdrawn by the delete: status %d, want 503", code)
	}
	c.queuedThenServed(srv, "www.site2.example", "site2", release)
	waitServed(srv, 1)
	if st := srv.Stats(); st.Served != 1 || st.Rejected != 1 || st.Abandoned != 0 || st.Errors != 0 || st.DispatchedAtTick != 1 {
		t.Errorf("stats = %+v, want one refused by the delete and one served from its queue", st)
	}
	waitBooksClosed(t, srv, "site2")
}

// TestAdminDeleteRacingQueueTimeout: the delete of a subscriber lands around
// the moment its queued request's wait times out, a little earlier or later
// on each round. Whoever takes the request, the client reads one 503, the
// handler leaves nothing on its record — the next request on the connection
// waits in a queue and gets its own decision — and the books close.
func TestAdminDeleteRacingQueueTimeout(t *testing.T) {
	const rounds = 12
	const timeout = 40 * time.Millisecond
	subs := []qos.Subscriber{{ID: "keep", Hosts: []string{"keep.example"}, Reservation: 20}}
	for i := 0; i < rounds; i++ {
		id := fmt.Sprintf("v%d", i)
		subs = append(subs, qos.Subscriber{ID: qos.SubscriberID(id), Hosts: []string{id + ".example"}, Reservation: 5})
	}
	addr, srv := startServer(t, Config{
		Subscribers: subs,
		Backends:    []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		// A tick every millisecond: the request that follows each refusal is
		// dispatched from its queue long before its own wait could time out.
		Scheduler:    core.Config{Cycle: time.Millisecond},
		QueueTimeout: timeout,
		AcctCycle:    20 * time.Millisecond,
	})
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("admin listen: %v", err)
	}
	go func() { _ = srv.ServeAdmin(adminLn) }()

	for i := 0; i < rounds; i++ {
		victim := qos.SubscriberID(fmt.Sprintf("v%d", i))
		release := park(srv)
		c := dialKeepAlive(t, addr)
		c.send(string(victim) + ".example")
		waitQueued(t, srv, victim)
		// From 5 ms before the timeout to 1.6 ms after it, across the rounds.
		time.Sleep(timeout - 5*time.Millisecond + time.Duration(i)*600*time.Microsecond)
		if code, res := adminReq(t, adminLn.Addr().String(), "DELETE", AdminPrefix+"subscribers/"+string(victim), nil); code != 200 {
			t.Fatalf("delete %s: status %d, result %+v", victim, code, res)
		}
		if code := c.status(); code != 503 {
			t.Fatalf("round %d: status %d, want 503 from the timeout or from the delete", i, code)
		}
		c.queuedThenServed(srv, "keep.example", "keep", release)
	}
	waitServed(srv, rounds)
	st := srv.Stats()
	t.Logf("%d rounds: the timeout took %d, the delete %d", rounds, st.Abandoned, rounds-st.Abandoned)
	if st.Served != rounds || st.Rejected != rounds || st.Abandoned > rounds || st.Errors != 0 {
		t.Errorf("stats = %+v, want %d refused once each and %d served", st, rounds, rounds)
	}
	waitBooksClosed(t, srv, "keep")
}

// TestCloseHandoffRacingQueueTimeout: requests of a migrating group are
// queued a little apart, and Close's hand-off sweep runs while their waits
// are timing out. Each is either timed out or handed off, never both and
// never neither, every client reads one 503, and every handler returns with
// its record's channel empty (the release check above).
func TestCloseHandoffRacingQueueTimeout(t *testing.T) {
	const n = 16
	const timeout = 25 * time.Millisecond
	addr, srv := startServer(t, Config{
		Subscribers:  tierSubs(),
		Backends:     []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		QueueTimeout: timeout,
		DrainTimeout: time.Second,
	})
	park(srv)
	codes := make(chan int, n)
	var middle time.Time
	for i := 0; i < n; i++ {
		c := dialKeepAlive(t, addr)
		c.send("a1.example")
		go func() { codes <- c.status() }()
		if i == n/2 {
			middle = time.Now()
		}
		time.Sleep(400 * time.Microsecond)
	}
	srv.SetMigrating("tierA")
	// The sweep starts about when the middle request's wait ends.
	time.Sleep(time.Until(middle.Add(timeout)))
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < n; i++ {
		if code := <-codes; code != 503 {
			t.Errorf("client got status %d, want 503", code)
		}
	}
	st := srv.Stats()
	t.Logf("%d requests: %d timed out, %d handed off", n, st.Abandoned, st.HandedOff)
	if st.Abandoned+st.HandedOff != n || uint64(len(srv.Handoffs())) != st.HandedOff || st.Served != 0 {
		t.Errorf("stats = %+v with %d handoffs, want each of %d requests timed out or handed off, once", st, len(srv.Handoffs()), n)
	}
	if out, _ := srv.sched.Outstanding(1); !out.IsZero() || srv.sched.QueueLen("a1") != 0 {
		t.Errorf("outstanding = %v, queued = %d, want the books closed", out, srv.sched.QueueLen("a1"))
	}
}
