package dispatch

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gage/internal/backend"
	"gage/internal/core"
	"gage/internal/httpwire"
	"gage/internal/qos"
	"gage/internal/telemetry"
)

// TestDispatchOnArrivalNeedsNoTick: a request whose subscriber is in credit
// is served with the scheduling cycle set to an hour — no tick can have
// dispatched it — and is counted as dispatched on arrival.
func TestDispatchOnArrivalNeedsNoTick(t *testing.T) {
	addr, srv := startTB(t, Config{
		Subscribers:      defaultSubs(),
		Backends:         []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		Scheduler:        core.Config{Cycle: time.Hour},
		TraceSampleEvery: 1,
	})
	// One cycle by hand banks a credit window's worth: credit arrives only at
	// ticks, and the loop's first is an hour away.
	srv.sched.Tick()
	for i := 0; i < 3; i++ {
		resp, err := rawGet(t, addr, "www.site1.example", "/static/512.html")
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("request %d: resp=%+v err=%v, want 200", i, resp, err)
		}
	}
	waitServed(srv, 3)
	st := srv.Stats()
	if st.DispatchedOnArrival != 3 || st.DispatchedAtTick != 0 || st.Served != 3 {
		t.Errorf("stats = %+v, want 3 served, all dispatched on arrival", st)
	}
	tr := waitTrace(t, srv, telemetry.OutcomeServed)
	assertStages(t, tr, telemetry.StageClassify, telemetry.StageQueue, telemetry.StageDispatch,
		telemetry.StageRelay, telemetry.StageSettle)
}

// TestParkedRequestIsDispatchedAtTick is the other half of the counter pair:
// a request that had to wait in its queue is handed over by a tick.
func TestParkedRequestIsDispatchedAtTick(t *testing.T) {
	addr, srv := startTB(t, Config{
		Subscribers: defaultSubs(),
		Backends:    []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
	})
	release := park(srv)
	status := getAsync(t, addr, "www.site1.example")
	waitQueued(t, srv, "site1")
	release()
	if code := <-status; code != 200 {
		t.Fatalf("parked request: status %d, want 200", code)
	}
	if st := srv.Stats(); st.DispatchedOnArrival != 0 || st.DispatchedAtTick != 1 {
		t.Errorf("stats = %+v, want one dispatch, made at a tick", st)
	}
}

// getAsync issues one request in the background and delivers its status code
// (0 for a transport error).
func getAsync(t *testing.T, addr, host string) <-chan int {
	status := make(chan int, 1)
	go func() {
		resp, err := rawGet(t, addr, host, "/static/512.html")
		if err != nil {
			status <- 0
			return
		}
		status <- resp.StatusCode
	}()
	return status
}

// gatedBackend answers accounting polls at once and holds every relayed
// request — announcing it on arrived — until gate closes, then answers 200:
// a request that has been dispatched and is, for as long as the test likes,
// in its relay.
func gatedBackend(t *testing.T, arrived chan<- struct{}, gate <-chan struct{}) string {
	return scriptedBackend(t, func(c *net.TCPConn, head string) {
		resp := &httpwire.Response{StatusCode: 200, Header: map[string]string{}, Body: []byte("held, then served")}
		if strings.HasPrefix(head, "GET "+backend.ReportPath) {
			resp.Header["Content-Type"] = "application/json"
			resp.Body = []byte(`{"node":1}`)
		} else {
			arrived <- struct{}{}
			<-gate
		}
		_ = resp.Write(c)
	})
}

// TestAdminDeleteRacingArrivalDispatch: an admin delete that lands while a
// dispatched-on-arrival request is in its relay finds nothing of it in the
// queue to withdraw; the delete drops the subscriber's in-flight charge with
// the rest of its state, the relay runs to its 200, and nothing settles the
// request a second time — it is neither refused nor abandoned.
func TestAdminDeleteRacingArrivalDispatch(t *testing.T) {
	arrived, gate := make(chan struct{}, 1), make(chan struct{})
	addr, srv := startTB(t, Config{
		Subscribers: feasibleSubs(),
		Backends:    []Backend{{ID: 1, Addr: gatedBackend(t, arrived, gate)}},
		Scheduler:   core.Config{Cycle: time.Hour},
		AcctCycle:   20 * time.Millisecond,
	})
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("admin listen: %v", err)
	}
	go func() { _ = srv.ServeAdmin(adminLn) }()

	status := getAsync(t, addr, "www.site1.example")
	<-arrived
	if out, _ := srv.sched.Outstanding(1); out.IsZero() {
		t.Fatal("a request in its relay holds no charge on its node")
	}
	if code, res := adminReq(t, adminLn.Addr().String(), "DELETE", AdminPrefix+"subscribers/site1", nil); code != 200 {
		t.Fatalf("delete: status %d, result %+v", code, res)
	}
	if out, _ := srv.sched.Outstanding(1); !out.IsZero() {
		t.Errorf("after the delete: outstanding = %v, want the subscriber's charge gone with it", out)
	}
	close(gate)
	if code := <-status; code != 200 {
		t.Fatalf("request in its relay through the delete: status %d, want 200", code)
	}
	waitServed(srv, 1)
	st := srv.Stats()
	if st.Served != 1 || st.Rejected != 0 || st.Abandoned != 0 || st.Errors != 0 || st.DispatchedOnArrival != 1 {
		t.Errorf("stats = %+v, want the one request served and nothing else", st)
	}
	// A few accounting polls later the node still owes nothing and is owed
	// nothing: the completion of a retired subscriber's request is skipped.
	time.Sleep(60 * time.Millisecond)
	if out, _ := srv.sched.Outstanding(1); !out.IsZero() {
		t.Errorf("outstanding = %v after the relay finished, want zero", out)
	}
}

// TestCloseHandoffRacingArrivalDispatch: Close's migration sweep withdraws
// what is still queued for a migrating group. A request of that group that
// was dispatched on arrival and is in its relay was never queued: it is not
// handed off, it finishes inside the drain, and it is counted once.
func TestCloseHandoffRacingArrivalDispatch(t *testing.T) {
	arrived, gate := make(chan struct{}, 1), make(chan struct{})
	addr, srv := startTB(t, Config{
		Subscribers: tierSubs(),
		Backends:    []Backend{{ID: 1, Addr: gatedBackend(t, arrived, gate)}},
		Scheduler:   core.Config{Cycle: time.Hour},
	})
	status := getAsync(t, addr, "a1.example")
	<-arrived
	srv.SetMigrating("tierA")
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// The sweep has run once the migrating group has left the scheduler.
	waitFor(t, 2*time.Second, func() bool { return srv.sched.Registered() == 1 })
	close(gate)
	if code := <-status; code != 200 {
		t.Fatalf("request in its relay through the hand-off: status %d, want 200", code)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := srv.Stats()
	if st.Served != 1 || st.HandedOff != 0 || st.Abandoned != 0 || st.Fenced != 0 {
		t.Errorf("stats = %+v, want the one request served and nothing handed off", st)
	}
	if h := srv.Handoffs(); len(h) != 0 {
		t.Errorf("handoffs = %+v, want none: the request was dispatched, not queued", h)
	}
}

// TestTickLoopCatchesUpMissedCycles drives the scheduling loop from an
// injected clock and wake source: the clock advances five cycles, one wake
// arrives, and the loop must run all five — every subscriber credited for
// each — counting the four that were not run at their own time as missed. A
// wake that finds nothing due runs nothing, and a stall longer than the
// credit window runs a window's worth of cycles and writes off the rest.
func TestTickLoopCatchesUpMissedCycles(t *testing.T) {
	srv, err := New(Config{
		Subscribers: []qos.Subscriber{{ID: "site1", Hosts: []string{"www.site1.example"}, Reservation: 100}},
		Backends:    []Backend{{ID: 1, Addr: "127.0.0.1:1"}},
		// The recorder commits one record per cycle run: its sequence number
		// is the cycle count.
		CycleRingSize: 8,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cycle, window := srv.sched.Cycle(), srv.sched.CreditWindow()
	var clock atomic.Int64
	wake := make(chan time.Time)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.runTicks(wake, func() time.Duration { return time.Duration(clock.Load()) })
	}()
	defer func() {
		close(srv.stopCh)
		<-done
	}()
	// The loop takes one wake at a time, so once a second one has been
	// received the first has been dealt with.
	wakeAndWait := func() {
		wake <- time.Time{}
		wake <- time.Time{}
	}

	clock.Add(int64(5 * cycle))
	wakeAndWait()
	want := qos.GRPS(100).PerCycle(cycle).Scale(5)
	if got, _ := srv.sched.Balance("site1"); got != want {
		t.Errorf("balance after five owed cycles and one wake = %v, want five cycles' credit %v", got, want)
	}
	if got := srv.rec.Seq(); got != 5 {
		t.Errorf("cycles run = %d, want 5", got)
	}
	if got := srv.tickMissed.Load(); got != 4 {
		t.Errorf("missed = %d, want 4", got)
	}
	if snap := srv.tickLate.Snapshot(); snap.Count != 1 || snap.Max < 4*cycle {
		t.Errorf("lateness = %+v, want one wake, its oldest cycle four cycles past due", snap)
	}

	clock.Add(int64(cycle / 2))
	wakeAndWait()
	if got := srv.rec.Seq(); got != 5 {
		t.Errorf("cycles run = %d after a wake with nothing due, want still 5", got)
	}

	// Three credit windows of stall: one window's worth of cycles is run —
	// the balance sits at the clamp either way — and all of them but the one
	// that was due are missed.
	clock.Add(int64(3*window - cycle/2))
	wakeAndWait()
	burst, owed := uint64(window/cycle), uint64(3*window/cycle)
	if got := srv.rec.Seq(); got != 5+burst {
		t.Errorf("cycles run = %d after a long stall, want %d", got, 5+burst)
	}
	if got, _ := srv.sched.Balance("site1"); got != qos.GRPS(100).PerCycle(window) {
		t.Errorf("balance after a long stall = %v, want the clamp %v", got, qos.GRPS(100).PerCycle(window))
	}
	if got := srv.tickMissed.Load(); got != 4+owed-1 {
		t.Errorf("missed = %d, want %d", got, 4+owed-1)
	}
	// The next cycle is owed one cycle later, not three windows' worth again.
	clock.Add(int64(cycle))
	wakeAndWait()
	if got := srv.rec.Seq(); got != 5+burst+1 {
		t.Errorf("cycles run = %d after an on-time wake, want %d", got, 5+burst+1)
	}
	if got := srv.tickMissed.Load(); got != 4+owed-1 {
		t.Errorf("missed = %d after an on-time wake, want it unchanged at %d", got, 4+owed-1)
	}
}
