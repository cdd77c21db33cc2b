package dispatch

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gage/internal/backend"
	"gage/internal/core"
	"gage/internal/httpwire"
	"gage/internal/obs"
	"gage/internal/qos"
)

// TestHeadViewsDoNotOutliveTheirRequest: the strings of a parsed request are
// views of a head its connection's next request overwrites, so whatever is
// kept past the request must be a copy. Each case keeps something of a first
// request, lets a second one — another host, another path, another length —
// follow it through the same message, and reads the kept thing back. TestMain
// has stale heads scribbled, so a missing copy reads as 0xFF bytes; without
// the hook it would read as a piece of the second request.
func TestHeadViewsDoNotOutliveTheirRequest(t *testing.T) {
	const (
		first  = "PUT /static/512.html?first=and-the-longer-of-the-two HTTP/1.1\r\nHost: a1.example\r\n\r\n"
		second = "GET /2 HTTP/1.1\r\nHost: b1.example\r\n\r\n"
	)

	// Close's migration sweep takes a Handoff for a queued request while its
	// handler waits; the new owner reads it after the connection has moved on.
	t.Run("handoff", func(t *testing.T) {
		srv := handshakeServer(t)
		w := newWire()
		w.br.Reset(strings.NewReader(first + second))
		if err := w.req.Read(w.br); err != nil {
			t.Fatalf("first request: %v", err)
		}
		enqueue(t, srv, &w.pc, 1, "a1")
		orphans, err := srv.sched.RemoveGroup("tierA")
		if err != nil || len(orphans) != 1 {
			t.Fatalf("RemoveGroup: %d orphans, %v, want request 1", len(orphans), err)
		}
		srv.handOff("tierA", orphans)
		<-w.pc.node
		if err := w.req.Read(w.br); err != nil || w.req.Host != "b1.example" {
			t.Fatalf("second request: host %q, %v", w.req.Host, err)
		}
		want := Handoff{ID: 1, Subscriber: "a1", Group: "tierA",
			Method: "PUT", Target: "/static/512.html?first=and-the-longer-of-the-two", Host: "a1.example"}
		if hs := srv.Handoffs(); len(hs) != 1 || hs[0] != want {
			t.Errorf("handoffs after the connection's next request = %q, want %+v", fmt.Sprintf("%+v", hs), want)
		}
	})

	// The backend keeps a subscriber id the first time it sees one: as the key
	// of its process table and in the accountant, whose report rows carry it.
	t.Run("backend usage rows", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("backend listen: %v", err)
		}
		be := backend.New(backend.Config{Node: 1})
		go func() { _ = be.Serve(ln) }()
		t.Cleanup(func() { _ = be.Close() })
		addr, srv := startServer(t, Config{
			Subscribers: tierSubs(),
			Backends:    []Backend{{ID: 1, Addr: ln.Addr().String()}},
			AcctCycle:   noPolls,
		})
		c := dialKeepAlive(t, addr)
		for _, raw := range []string{first, second} {
			if _, err := c.conn.Write([]byte(raw)); err != nil {
				t.Fatalf("write: %v", err)
			}
			if code := c.status(); code != 200 {
				t.Fatalf("status %d for %q, want 200", code, raw)
			}
		}
		if dials, _ := poolCounts(srv); dials != 1 {
			t.Fatalf("%d backend dials, want both requests on one backend connection", dials)
		}
		rows := map[qos.SubscriberID]int{}
		for id, u := range be.Report().BySubscriber {
			rows[id] = u.Completed
		}
		if want := map[qos.SubscriberID]int{"a1": 1, "b1": 1}; !reflect.DeepEqual(rows, want) {
			t.Errorf("the backend's report counts %q, want %v", fmt.Sprint(rows), want)
		}
	})

	// The subscriber id of an admin request is cut from its path and reaches
	// the event bus, which keeps it in its ring.
	t.Run("admin event", func(t *testing.T) {
		_, srv := startServer(t, Config{
			Subscribers:   tierSubs(),
			Backends:      []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
			EventRingSize: 64,
		})
		adminLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("admin listen: %v", err)
		}
		go func() { _ = srv.ServeAdmin(adminLn) }()
		c := dialKeepAlive(t, adminLn.Addr().String())
		for _, raw := range []string{
			"DELETE " + AdminPrefix + "subscribers/a1 HTTP/1.1\r\nHost: admin\r\n\r\n",
			"GET " + StatsPath + " HTTP/1.1\r\nHost: somewhere.else.example\r\n\r\n",
		} {
			if _, err := c.conn.Write([]byte(raw)); err != nil {
				t.Fatalf("write: %v", err)
			}
			if code := c.status(); code != 200 {
				t.Fatalf("status %d for %q, want 200", code, raw)
			}
		}
		var admin []obs.Event
		for _, ev := range srv.bus.Events() {
			if ev.Kind == obs.KindAdmin {
				admin = append(admin, ev)
			}
		}
		if len(admin) != 1 || admin[0].Sub != "a1" || admin[0].Detail != "subscriber-delete:accepted" {
			t.Errorf("admin events after the connection's next request = %q, want one subscriber-delete of a1", fmt.Sprintf("%+v", admin))
		}
	})
}

// headCap is the capacity of a message's unexported head buffer.
func headCap(msg any) int {
	return reflect.ValueOf(msg).Elem().FieldByName("head").Cap()
}

// TestRelayBigHeadDoesNotPinWire: a head near httpwire.MaxHeadBytes is
// relayed like any other, and the wires that carried it go back to the pool
// holding no buffer larger than maxScratch — not the head buffers the request
// and the response grew, not the scratch the request was composed in.
func TestRelayBigHeadDoesNotPinWire(t *testing.T) {
	keepHeads(t) // scribbled heads are dropped whatever their size
	var (
		mu             sync.Mutex
		largest, wires int
	)
	check := putWireCheck
	putWireCheck = func(w *wire) {
		check(w)
		mu.Lock()
		defer mu.Unlock()
		wires++
		largest = max(largest, headCap(&w.req), headCap(&w.resp), cap(w.buf))
	}
	defer func() { putWireCheck = check }()

	addr, srv := cluster(t, 1, defaultSubs(), core.Config{})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	request := "GET /static/512.html HTTP/1.0\r\nHost: www.site1.example\r\nX-Pad: " + strings.Repeat("p", 60<<10) + "\r\n\r\n"
	if _, err := c.Write([]byte(request)); err != nil {
		t.Fatalf("write: %v", err)
	}
	resp, err := httpwire.ReadResponse(bufio.NewReader(c))
	if err != nil || resp.StatusCode != 200 || len(resp.Body) != 512 {
		t.Fatalf("response %v, %v; want the 512-byte page", resp, err)
	}
	c.Close()
	// Close waits for the client's handler, which releases its wire last.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if wires < 2 {
		t.Fatalf("%d wires released, want the client's and the backend leg's", wires)
	}
	if largest > maxScratch {
		t.Errorf("a released wire holds a %d-byte buffer, want none over maxScratch (%d)", largest, maxScratch)
	}
}
