package core

import (
	"errors"
	"testing"
	"time"

	"gage/internal/qos"
)

// overdraw reports one completion on node 1 for a request that was never
// dispatched, at heavy usage: the balance goes well below zero and nothing
// else about the scheduler changes.
func overdraw(t *testing.T, s *Scheduler, sub qos.SubscriberID) {
	t.Helper()
	if err := s.ReportUsage(UsageReport{Node: 1, BySubscriber: map[qos.SubscriberID]SubscriberUsage{
		sub: {Usage: qos.GenericCost().Scale(5), Completed: 1},
	}}); err != nil {
		t.Fatalf("ReportUsage: %v", err)
	}
}

// TestSubmitDispatchesIffReservationCoversIt walks the three conditions:
// Submit dispatches exactly when the subscriber's queue is empty, the
// reservation round's gate passes, and a node has room; every other request
// is queued as Enqueue would have queued it, or refused as Enqueue would
// have refused it.
func TestSubmitDispatchesIffReservationCoversIt(t *testing.T) {
	subs := []qos.Subscriber{
		{ID: "a", Reservation: 100, QueueLimit: 2},
		{ID: "b", Reservation: 100},
	}
	// One generic request of room per node (OutstandingWindow is one cycle),
	// and a gate that lets the set-up fill both without a tick: a tick would
	// also drain them.
	tight := Config{OutstandingWindow: 10 * time.Millisecond, Gate: GateReported}
	var nextID uint64 = 100
	cases := []struct {
		name  string
		cfg   Config
		setup func(t *testing.T, s *Scheduler)
		sub   qos.SubscriberID
		want  bool  // dispatched on arrival
		err   error // matched with errors.Is; ErrQueueFull must also be the bare sentinel
	}{
		{name: "empty queue, balance zero, nothing in flight", sub: "a", want: true},
		{name: "credit banked", sub: "a", want: true,
			setup: func(t *testing.T, s *Scheduler) { s.Tick(); s.Tick() }},
		{name: "a request already queued is never overtaken", sub: "a", want: false,
			setup: func(t *testing.T, s *Scheduler) {
				if err := s.Enqueue(Request{ID: 1, Subscriber: "a"}); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "overdrawn balance waits for credit", sub: "a", want: false,
			setup: func(t *testing.T, s *Scheduler) { overdraw(t, s, "a") }},
		{name: "another subscriber's debt is not this one's", sub: "b", want: true,
			setup: func(t *testing.T, s *Scheduler) { overdraw(t, s, "a") }},
		{name: "self-clocked gate counts the request in flight", sub: "a", want: false,
			setup: func(t *testing.T, s *Scheduler) {
				if _, now, err := s.Submit(Request{ID: 1, Subscriber: "a"}); !now || err != nil {
					t.Fatalf("first Submit: dispatched=%v err=%v", now, err)
				}
			}},
		{name: "reported gate does not", cfg: Config{Gate: GateReported}, sub: "a", want: true,
			setup: func(t *testing.T, s *Scheduler) {
				if _, now, err := s.Submit(Request{ID: 1, Subscriber: "a"}); !now || err != nil {
					t.Fatalf("first Submit: dispatched=%v err=%v", now, err)
				}
			}},
		{name: "reported gate still refuses a debt", cfg: Config{Gate: GateReported}, sub: "a", want: false,
			setup: func(t *testing.T, s *Scheduler) { overdraw(t, s, "a") }},
		{name: "every node at weight 0", sub: "a", want: false,
			setup: func(t *testing.T, s *Scheduler) {
				for _, n := range s.Nodes() {
					if err := s.SetNodeWeight(n, 0); err != nil {
						t.Fatal(err)
					}
				}
			}},
		{name: "one node at weight 0, the other has room", sub: "a", want: true,
			setup: func(t *testing.T, s *Scheduler) {
				if err := s.SetNodeWeight(1, 0); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "no node has room", cfg: tight, sub: "a", want: false,
			setup: func(t *testing.T, s *Scheduler) {
				// b fills both nodes' one-request bounds.
				for i := uint64(1); i <= 2; i++ {
					if _, now, err := s.Submit(Request{ID: i, Subscriber: "b"}); !now || err != nil {
						t.Fatalf("filling node %d: dispatched=%v err=%v", i, now, err)
					}
				}
			}},
		{name: "unknown subscriber", sub: "nobody", err: ErrUnknownSubscriber},
		{name: "full queue", sub: "a", err: ErrQueueFull,
			setup: func(t *testing.T, s *Scheduler) {
				overdraw(t, s, "a")
				for i := uint64(1); i <= 2; i++ {
					if _, now, err := s.Submit(Request{ID: i, Subscriber: "a"}); now || err != nil {
						t.Fatalf("filling the queue: dispatched=%v err=%v", now, err)
					}
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustScheduler(t, subs, twoNodes(), tc.cfg)
			if tc.setup != nil {
				tc.setup(t, s)
			}
			qlen, dropped, total := s.QueueLen(tc.sub), s.Dropped(tc.sub), s.TotalDispatched()
			nextID++
			d, now, err := s.Submit(Request{ID: nextID, Subscriber: tc.sub, Payload: "p"})
			if tc.err != nil {
				if !errors.Is(err, tc.err) || now {
					t.Fatalf("Submit = dispatched %v, err %v; want err %v", now, err, tc.err)
				}
				if tc.err == ErrQueueFull && (err != ErrQueueFull || s.Dropped(tc.sub) != dropped+1) {
					t.Errorf("full queue: err %#v, dropped %d→%d; want the bare sentinel and one drop",
						err, dropped, s.Dropped(tc.sub))
				}
				if s.QueueLen(tc.sub) != qlen {
					t.Errorf("a refused request changed the queue length: %d→%d", qlen, s.QueueLen(tc.sub))
				}
				return
			}
			if err != nil || now != tc.want {
				t.Fatalf("Submit = dispatched %v, err %v; want dispatched %v", now, err, tc.want)
			}
			if !now {
				if got := s.QueueLen(tc.sub); got != qlen+1 {
					t.Errorf("queued request: queue length %d→%d, want +1", qlen, got)
				}
				if got := s.TotalDispatched(); got != total {
					t.Errorf("queued request: dispatched count %d→%d", total, got)
				}
				checkSchedulerInvariants(t, s, "queued")
				return
			}
			if d.Req.ID != nextID || d.Req.Payload != "p" || d.Predicted != qos.GenericCost() {
				t.Errorf("dispatch = %+v, want request %d with its payload at the generic prediction", d, nextID)
			}
			if !s.NodeEnabled(d.Node) {
				t.Errorf("dispatched to node %d, which takes no work", d.Node)
			}
			if got := s.QueueLen(tc.sub); got != qlen {
				t.Errorf("dispatched request left the queue at %d, want %d", got, qlen)
			}
			if got := s.TotalDispatched(); got != total+1 {
				t.Errorf("dispatched count %d→%d, want +1", total, got)
			}
			checkSchedulerInvariants(t, s, "dispatched")
		})
	}
}

// TestSubmitKeepsQueueOrder: what Submit queues, the tick dispatches in
// arrival order, behind what was queued before it.
func TestSubmitKeepsQueueOrder(t *testing.T) {
	s := mustScheduler(t, []qos.Subscriber{{ID: "a", Reservation: 100}}, twoNodes(), Config{})
	if err := s.Enqueue(Request{ID: 1, Subscriber: "a"}); err != nil {
		t.Fatal(err)
	}
	for id := uint64(2); id <= 4; id++ {
		if _, now, err := s.Submit(Request{ID: id, Subscriber: "a"}); now || err != nil {
			t.Fatalf("Submit(%d) behind a backlog: dispatched=%v err=%v", id, now, err)
		}
	}
	var got []uint64
	for i := 0; i < 3 && len(got) < 4; i++ {
		for _, d := range s.Tick() {
			got = append(got, d.Req.ID)
		}
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("dispatch order %v, want 1 2 3 4", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("dispatched %v in three ticks, want all four", got)
	}
}

// schedulerState is everything a settlement leaves behind that a caller or
// the next decision can see.
type schedulerState struct {
	balance     qos.Vector
	hasBalance  bool
	outstanding [2]qos.Vector
	pending     int
	estTotal    qos.Vector
	dispatched  uint64
}

func stateOf(s *Scheduler, sub qos.SubscriberID) schedulerState {
	var st schedulerState
	st.balance, st.hasBalance = s.Balance(sub)
	st.outstanding[0], _ = s.Outstanding(1)
	st.outstanding[1], _ = s.Outstanding(2)
	st.dispatched = s.TotalDispatched()
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.subs[sub]; q != nil {
		st.estTotal = q.estTotal
		for i := range q.pending {
			st.pending += q.pending[i].size()
		}
	}
	return st
}

// TestSubmitDispatchSettlesLikeATickDispatch: whichever way a dispatch is
// settled — completed by an accounting message, released, moved to another
// node, or dropped with its subscriber — one made by Submit leaves the
// scheduler exactly where the same one made by a Tick leaves it. The two
// schedulers run the same cycles, so their credit is the same; only who made
// the decision differs.
func TestSubmitDispatchSettlesLikeATickDispatch(t *testing.T) {
	settlements := []struct {
		name   string
		settle func(t *testing.T, s *Scheduler, d Dispatch)
		// charged is whether a charge is still held afterwards.
		charged bool
	}{
		{name: "ReportUsage", settle: func(t *testing.T, s *Scheduler, d Dispatch) {
			if err := s.ReportUsage(UsageReport{Node: d.Node, BySubscriber: map[qos.SubscriberID]SubscriberUsage{
				"a": {Usage: qos.GenericCost().Scale(1.5), Completed: 1},
			}}); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "ReleaseDispatch", settle: func(t *testing.T, s *Scheduler, d Dispatch) {
			if !s.ReleaseDispatch("a", d.Node, d.Req.ID) {
				t.Fatal("ReleaseDispatch found no charge")
			}
			if s.ReleaseDispatch("a", d.Node, d.Req.ID) {
				t.Fatal("ReleaseDispatch found the charge twice")
			}
		}},
		{name: "Redispatch", charged: true, settle: func(t *testing.T, s *Scheduler, d Dispatch) {
			alt, ok := s.Redispatch("a", d.Req.ID, d.Node)
			if !ok || alt == d.Node {
				t.Fatalf("Redispatch = node %d, %v; want the other node", alt, ok)
			}
		}},
		{name: "RemoveSubscriber", settle: func(t *testing.T, s *Scheduler, d Dispatch) {
			if orphans, err := s.RemoveSubscriber("a"); err != nil || len(orphans) != 0 {
				t.Fatalf("RemoveSubscriber = %v, %v; want no orphans", orphans, err)
			}
		}},
	}
	for _, tc := range settlements {
		t.Run(tc.name, func(t *testing.T) {
			subs := []qos.Subscriber{{ID: "a", Reservation: 100}}
			byTick := mustScheduler(t, subs, twoNodes(), Config{})
			if err := byTick.Enqueue(Request{ID: 7, Subscriber: "a"}); err != nil {
				t.Fatal(err)
			}
			ds := byTick.Tick()
			if len(ds) != 1 {
				t.Fatalf("tick dispatched %d, want 1", len(ds))
			}
			want := ds[0]

			onArrival := mustScheduler(t, subs, twoNodes(), Config{})
			got, now, err := onArrival.Submit(Request{ID: 7, Subscriber: "a"})
			if !now || err != nil {
				t.Fatalf("Submit: dispatched=%v err=%v", now, err)
			}
			if more := onArrival.Tick(); len(more) != 0 {
				t.Fatalf("the tick after a Submit dispatch found %d more to dispatch", len(more))
			}
			if got != want {
				t.Fatalf("Submit decided %+v, the tick %+v", got, want)
			}
			if a, b := stateOf(onArrival, "a"), stateOf(byTick, "a"); a != b || a.pending != 1 {
				t.Fatalf("before settlement: Submit left %+v, the tick %+v; want them equal with one charge pending", a, b)
			}

			tc.settle(t, byTick, want)
			tc.settle(t, onArrival, got)
			a, b := stateOf(onArrival, "a"), stateOf(byTick, "a")
			if a != b {
				t.Errorf("after %s: Submit's dispatch left %+v, the tick's %+v", tc.name, a, b)
			}
			if !tc.charged && (a.pending != 0 || !a.estTotal.IsZero() || !a.outstanding[0].IsZero() || !a.outstanding[1].IsZero()) {
				t.Errorf("after %s a charge is still held: %+v", tc.name, a)
			}
			checkSchedulerInvariants(t, onArrival, tc.name)
		})
	}
}
