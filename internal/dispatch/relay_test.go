package dispatch

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gage/internal/breaker"
	"gage/internal/core"
	"gage/internal/httpwire"
)

// scriptedBackend runs script on every connection it accepts, after reading
// one request from it (script gets the request's raw head too). The listener
// and every accepted connection close with the test.
func scriptedBackend(t *testing.T, script func(c *net.TCPConn, head string)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var wg sync.WaitGroup
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				_ = c.SetDeadline(time.Now().Add(10 * time.Second))
				br := bufio.NewReader(c)
				var head strings.Builder
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					head.WriteString(line)
					if line == "\r\n" {
						break
					}
				}
				script(c.(*net.TCPConn), head.String())
			}()
		}
	}()
	t.Cleanup(func() { _ = ln.Close(); wg.Wait() })
	return ln.Addr().String()
}

// pageBytes is the in-repo backend's synthetic page.
func pageBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(i%26)
	}
	return b
}

func relayStreak(t *testing.T, srv *Server, id core.NodeID) breaker.Snapshot {
	t.Helper()
	snap, ok := srv.BreakerSnapshot(id)
	if !ok {
		t.Fatalf("no breaker for node %d", id)
	}
	return snap
}

var traceLine = regexp.MustCompile(`X-Gage-Trace: [0-9a-f]{16}\r\n`)

// TestRelayClientBytesUnchanged pins what a client reads for a page of the
// in-repo backend to the bytes the store-and-forward relay produced: header
// order, the Content-Length line, no Connection header from the backend leg,
// and a client's own X-Gage-* headers never reaching the reply. The goldens
// were captured from the parent commit; only the trace ID, a process-wide
// counter, is masked.
func TestRelayClientBytesUnchanged(t *testing.T) {
	addr, _ := cluster(t, 1, defaultSubs(), core.Config{})
	tests := []struct{ request, want string }{
		{"GET /static/512.html HTTP/1.0\r\nHost: www.site1.example\r\n\r\n",
			"HTTP/1.0 200 OK\r\nContent-Type: text/html\r\nX-Gage-Trace: ID\r\nX-Gage-Usage: 1070500,250000,912\r\nContent-Length: 512\r\n\r\n" + string(pageBytes(512))},
		{"GET /static/26.html HTTP/1.1\r\nHost: www.site1.example\r\nConnection: close\r\nX-Gage-Trace: spoofed\r\nX-Gage-Subscriber: site2\r\n\r\n",
			"HTTP/1.0 200 OK\r\nContent-Type: text/html\r\nX-Gage-Trace: ID\r\nX-Gage-Usage: 1003580,202539,426\r\nContent-Length: 26\r\n\r\nabcdefghijklmnopqrstuvwxyz"},
	}
	for _, tt := range tests {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Write([]byte(tt.request)); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := io.ReadAll(c)
		c.Close()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if masked := traceLine.ReplaceAll(got, []byte("X-Gage-Trace: ID\r\n")); string(masked) != tt.want {
			t.Errorf("client read\n%q\nwant\n%q", masked, tt.want)
		}
	}
}

// TestRelayRequestHeadIsTheDispatchersOwn: the relayed request carries the
// dispatcher's subscriber tag, trace ID and keep-alive exactly once each,
// whatever the client sent under those names, and the client's other headers
// as they came.
func TestRelayRequestHeadIsTheDispatchersOwn(t *testing.T) {
	heads := make(chan string, 1)
	be := scriptedBackend(t, func(c *net.TCPConn, head string) {
		heads <- head
		_, _ = c.Write([]byte("HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok"))
	})
	addr, _ := startServer(t, Config{Subscribers: defaultSubs(), Backends: []Backend{{ID: 1, Addr: be}}, AcctCycle: noPolls})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	_, _ = c.Write([]byte("GET /x HTTP/1.1\r\nHost: www.site1.example\r\nConnection: close\r\nX-Gage-Trace: spoofed\r\nX-Gage-Subscriber: site2\r\nAccept: */*\r\n\r\n"))
	if resp, err := httpwire.ReadResponse(bufio.NewReader(c)); err != nil || resp.StatusCode != 200 {
		t.Fatalf("response %v, %v", resp, err)
	}
	head := <-heads
	want := "GET /x HTTP/1.1\r\nHost: www.site1.example\r\nAccept: */*\r\nConnection: keep-alive\r\nX-Gage-Subscriber: site1\r\nX-Gage-Trace: ID\r\n\r\n"
	if got := traceLine.ReplaceAllString(head, "X-Gage-Trace: ID\r\n"); got != want {
		t.Errorf("backend read\n%q\nwant\n%q", got, want)
	}
}

// TestRelayStreamsLargePageByteExact: a page far larger than the relay's
// buffers arrives whole and in order, and the backend connection that
// carried it is parked and reused.
func TestRelayStreamsLargePageByteExact(t *testing.T) {
	const size = 1 << 20
	want := pageBytes(size)
	addr, srv := startServer(t, Config{
		Subscribers: defaultSubs(),
		Backends:    []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		AcctCycle:   noPolls,
	})
	for i := 1; i <= 3; i++ {
		resp, err := get(t, addr, "www.site1.example", fmt.Sprintf("/static/%d.html", size))
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("get %d: %v, %v", i, resp, err)
		}
		if !bytes.Equal(resp.Body, want) {
			t.Fatalf("get %d: the %d-byte page arrived as %d bytes, or out of order", i, size, len(resp.Body))
		}
		waitFor(t, 2*time.Second, func() bool { return idleCount(srv, 1) == 1 })
	}
	if dials, reuses := poolCounts(srv); dials != 1 || reuses != 2 {
		t.Errorf("dials %d reuses %d, want the one connection parked and reused after each page", dials, reuses)
	}
	waitServed(srv, 3)
	if st := srv.Stats(); st.Served != 3 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 3 served", st)
	}
	if snap := relayStreak(t, srv, 1); snap.RelayStreak != 0 || snap.State != breaker.Closed {
		t.Errorf("breaker = %+v, want untouched", snap)
	}
}

// TestRelaySlowClientIsNotTheBackendsFault: BackendTimeout bounds how long
// the backend may keep the relay waiting, not how long a client may take to
// download. A client that stalls for longer than BackendTimeout in the middle
// of a large page still gets all of it, and the healthy backend's breaker and
// pooled connection are as after any other served request.
func TestRelaySlowClientIsNotTheBackendsFault(t *testing.T) {
	const size = 8 << 20 // the backend's largest page: more than the sockets on the path hold
	const backendTimeout = 200 * time.Millisecond
	addr, srv := startServer(t, Config{
		Subscribers:       defaultSubs(),
		Backends:          []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		AcctCycle:         noPolls,
		BackendTimeout:    backendTimeout,
		ClientIdleTimeout: 30 * time.Second,
	})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	_ = c.(*net.TCPConn).SetReadBuffer(64 << 10)
	_ = c.SetDeadline(time.Now().Add(30 * time.Second))
	_, _ = c.Write([]byte(fmt.Sprintf("GET /static/%d.html HTTP/1.0\r\nHost: www.site1.example\r\n\r\n", size)))
	br := bufio.NewReader(c)
	var resp httpwire.Response
	if n, err := resp.ReadHead(br); err != nil || resp.StatusCode != 200 || n != size {
		t.Fatalf("head %+v, n %d, %v", resp, n, err)
	}
	// Stall with the relay blocked in its client write, well past the
	// backend's deadline, then take the rest.
	time.Sleep(3 * backendTimeout)
	body, err := io.ReadAll(br)
	if err != nil || !bytes.Equal(body, pageBytes(size)) {
		t.Fatalf("the page arrived as %d bytes (%v), want all %d in order", len(body), err, size)
	}
	waitServed(srv, 1)
	if st := srv.Stats(); st.Served != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v, want the request served", st)
	}
	if snap := relayStreak(t, srv, 1); snap.RelayStreak != 0 || snap.State != breaker.Closed {
		t.Errorf("breaker = %+v, want untouched by a slow client", snap)
	}
	if idleCount(srv, 1) != 1 {
		t.Errorf("the backend connection was not parked after the page (%d idle)", idleCount(srv, 1))
	}
}

// TestRelayBackendDiesMidBody: once the client holds the response head there
// is no taking it back. A backend that breaks off mid-body — hanging up or
// reset — costs the client its connection and nothing else: no second status
// line is written into what the client reads as body. It is an error, a
// failure on the node's breaker, and the connection is not parked.
func TestRelayBackendDiesMidBody(t *testing.T) {
	for _, how := range []string{"hang-up", "reset"} {
		t.Run(how, func(t *testing.T) {
			be := scriptedBackend(t, func(c *net.TCPConn, _ string) {
				_, _ = c.Write([]byte("HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 1048576\r\n\r\n"))
				_, _ = c.Write(pageBytes(100 << 10))
				if how == "reset" {
					// Let the dispatcher take what was sent; a reset discards
					// whatever it has not read yet.
					time.Sleep(50 * time.Millisecond)
					_ = c.SetLinger(0)
				}
			})
			addr, srv := startServer(t, Config{Subscribers: defaultSubs(), Backends: []Backend{{ID: 1, Addr: be}}, AcctCycle: noPolls})
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			_ = c.SetDeadline(time.Now().Add(5 * time.Second))
			_, _ = c.Write([]byte("GET /big HTTP/1.1\r\nHost: www.site1.example\r\n\r\n"))
			got, err := io.ReadAll(c)
			if err != nil {
				t.Fatalf("the client connection must end in a plain close, got %v after %d bytes", err, len(got))
			}
			if !bytes.HasPrefix(got, []byte("HTTP/1.0 200 OK\r\n")) {
				t.Fatalf("client read %q...", got[:min(len(got), 40)])
			}
			if n := bytes.Count(got, []byte("HTTP/1.")); n != 1 {
				t.Errorf("client saw %d status lines, want exactly one", n)
			}
			if len(got) >= 1<<20 {
				t.Errorf("client got %d bytes of a response whose body broke off at 100 KiB", len(got))
			}
			waitFor(t, 2*time.Second, func() bool { return srv.Stats().Errors == 1 })
			if st := srv.Stats(); st.Served != 0 || st.Retried != 0 {
				t.Errorf("stats = %+v, want one error and nothing served or retried", st)
			}
			if snap := relayStreak(t, srv, 1); snap.RelayStreak != 1 {
				t.Errorf("breaker = %+v, want the mid-body failure noted", snap)
			}
			if idleCount(srv, 1) != 0 || trackedBackends(srv) != 0 {
				t.Errorf("a connection that broke mid-body is still held: %d idle, %d tracked", idleCount(srv, 1), trackedBackends(srv))
			}
		})
	}
}

// TestRelayClientHangsUpMidBody: the client leaving halfway through a page
// is no fault of the backend's — its breaker stays as it was — but the
// backend connection still holds the rest of the page and cannot be parked.
func TestRelayClientHangsUpMidBody(t *testing.T) {
	for _, how := range []string{"hang-up", "reset"} {
		t.Run(how, func(t *testing.T) {
			backendDone := make(chan struct{})
			be := scriptedBackend(t, func(c *net.TCPConn, _ string) {
				defer close(backendDone)
				// More than the sockets between here and the client can
				// hold: the backend is still sending when the client leaves.
				_, _ = c.Write([]byte("HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 67108864\r\n\r\n"))
				chunk := pageBytes(64 << 10)
				for i := 0; i < 1024; i++ {
					if _, err := c.Write(chunk); err != nil {
						return
					}
				}
			})
			addr, srv := startServer(t, Config{Subscribers: defaultSubs(), Backends: []Backend{{ID: 1, Addr: be}}, AcctCycle: noPolls})
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			_ = c.SetDeadline(time.Now().Add(5 * time.Second))
			_, _ = c.Write([]byte("GET /big HTTP/1.1\r\nHost: www.site1.example\r\n\r\n"))
			if _, err := io.ReadFull(c, make([]byte, 256<<10)); err != nil {
				t.Fatalf("reading the first 256 KiB: %v", err)
			}
			if how == "reset" {
				_ = c.(*net.TCPConn).SetLinger(0)
			}
			c.Close()
			waitFor(t, 5*time.Second, func() bool { return srv.Stats().Errors == 1 })
			select {
			case <-backendDone:
			case <-time.After(5 * time.Second):
				t.Fatal("the backend connection was left open with the rest of the page in it")
			}
			if snap := relayStreak(t, srv, 1); snap.RelayStreak != 0 || snap.State != breaker.Closed || snap.Opens != 0 {
				t.Errorf("breaker = %+v, want untouched by a client hanging up", snap)
			}
			if idleCount(srv, 1) != 0 || trackedBackends(srv) != 0 {
				t.Errorf("a half-read backend connection is still held: %d idle, %d tracked", idleCount(srv, 1), trackedBackends(srv))
			}
			if st := srv.Stats(); st.Served != 0 {
				t.Errorf("stats = %+v, want nothing served", st)
			}
		})
	}
}

// TestRelayBufferSizedResponseIsAllOr502: a response that fits the backend
// reader is read to its end before the client sees a byte, so a backend that
// dies inside it still yields a clean 502, not a torn page.
func TestRelayBufferSizedResponseIsAllOr502(t *testing.T) {
	be := scriptedBackend(t, func(c *net.TCPConn, _ string) {
		_, _ = c.Write([]byte("HTTP/1.0 200 OK\r\nContent-Length: 2048\r\n\r\n"))
		_, _ = c.Write(pageBytes(1000))
	})
	addr, srv := startServer(t, Config{Subscribers: defaultSubs(), Backends: []Backend{{ID: 1, Addr: be}}, AcctCycle: noPolls})
	resp, err := get(t, addr, "www.site1.example", "/x")
	if err != nil || resp.StatusCode != 502 {
		t.Fatalf("response %v, %v; want a 502", resp, err)
	}
	if st := srv.Stats(); st.Errors != 1 || st.Served != 0 {
		t.Errorf("stats = %+v, want one error", st)
	}
	if snap := relayStreak(t, srv, 1); snap.RelayStreak != 1 {
		t.Errorf("breaker = %+v, want the failure noted", snap)
	}
}

// TestRelayRefusesTransferEncoding: the relay frames by Content-Length. A
// chunked request is answered 400 and its connection closed; a chunked
// backend response becomes a 502 and the backend connection, with chunks
// still in it, is closed rather than parked for the next request to read.
func TestRelayRefusesTransferEncoding(t *testing.T) {
	be := scriptedBackend(t, func(c *net.TCPConn, _ string) {
		_, _ = c.Write([]byte("HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"))
		// Stay open, as a keep-alive backend would.
		_, _ = c.Read(make([]byte, 1))
	})
	addr, srv := startServer(t, Config{Subscribers: defaultSubs(), Backends: []Backend{{ID: 1, Addr: be}}, AcctCycle: noPolls})

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	_, _ = c.Write([]byte("POST /up HTTP/1.1\r\nHost: www.site1.example\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"))
	br := bufio.NewReader(c)
	resp, err := httpwire.ReadResponse(br)
	if err != nil || resp.StatusCode != 400 {
		t.Fatalf("chunked request: %v, %v; want a 400", resp, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("after the 400 the connection must close, read: %v", err)
	}
	if dials, _ := poolCounts(srv); dials != 0 {
		t.Errorf("the chunked request reached a backend (%d dials)", dials)
	}

	resp, err = get(t, addr, "www.site1.example", "/x")
	if err != nil || resp.StatusCode != 502 {
		t.Fatalf("chunked backend response: %v, %v; want a 502", resp, err)
	}
	if idleCount(srv, 1) != 0 || trackedBackends(srv) != 0 {
		t.Errorf("the mis-framed backend connection is still held: %d idle, %d tracked", idleCount(srv, 1), trackedBackends(srv))
	}
	if st := srv.Stats(); st.Errors != 1 {
		t.Errorf("stats = %+v, want one error", st)
	}
}

// TestRelayHeadTooLarge: a client that never ends its head is cut off with a
// 400 at httpwire.MaxHeadBytes instead of growing the dispatcher's heap for
// as long as it cares to send.
func TestRelayHeadTooLarge(t *testing.T) {
	addr, _ := cluster(t, 1, defaultSubs(), core.Config{})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	go func() {
		// The dispatcher stops reading at the cap, so the tail of this write
		// may fail; that is the point.
		_, _ = c.Write(bytes.Repeat([]byte("a"), 1<<20))
	}()
	resp, err := httpwire.ReadResponse(bufio.NewReader(c))
	if err != nil || resp.StatusCode != 400 {
		t.Fatalf("response %v, %v; want a 400", resp, err)
	}
}

// TestRelayPipelinedAndSplitHeads: two requests that arrive in one client
// write are both answered, in order; so is one whose head dribbles in over
// several segments, and one whose head is larger than the reader's buffer.
func TestRelayPipelinedAndSplitHeads(t *testing.T) {
	addr, srv := cluster(t, 2, defaultSubs(), core.Config{})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	expect := func(what string, size int) {
		t.Helper()
		resp, err := httpwire.ReadResponse(br)
		if err != nil || resp.StatusCode != 200 || !bytes.Equal(resp.Body, pageBytes(size)) {
			t.Fatalf("%s: %v, %v; want the %d-byte page", what, resp, err, size)
		}
	}
	_, _ = c.Write([]byte("GET /static/512.html HTTP/1.1\r\nHost: www.site1.example\r\n\r\n" +
		"GET /static/1024.html HTTP/1.1\r\nHost: www.site2.example\r\n\r\n"))
	expect("first pipelined request", 512)
	expect("second pipelined request", 1024)

	for _, part := range []string{"GET /static/30", "0.html HTTP/1.1\r", "\nHost: www.site1", ".example\r\n", "\r", "\n"} {
		_, _ = c.Write([]byte(part))
		time.Sleep(5 * time.Millisecond)
	}
	expect("head split across segments", 300)

	_, _ = c.Write([]byte("GET /static/700.html HTTP/1.1\r\nHost: www.site1.example\r\nX-Pad: " + strings.Repeat("p", 3*4096) + "\r\n\r\n"))
	expect("head larger than the reader buffer", 700)
	waitServed(srv, 4)
	if st := srv.Stats(); st.Served != 4 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 4 served", st)
	}
}

// allocsPerRequest runs exchange 20 times to warm the pools and the backend
// connection, then 200 times counting every allocation in the process.
func allocsPerRequest(t *testing.T, exchange func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	keepHeads(t)
	for i := 0; i < 20; i++ {
		exchange()
	}
	const requests = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		exchange()
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.Mallocs-before.Mallocs) / requests
	t.Logf("%.1f allocations and %.0f bytes per request", perReq, float64(after.TotalAlloc-before.TotalAlloc)/requests)
	return perReq
}

// allocGateRequest is what both allocation gates send, and readPage how they
// read the answer without allocating.
var allocGateRequest = []byte("GET /static/512.html HTTP/1.1\r\nHost: www.site1.example\r\n\r\n")

func readPage(t *testing.T, br *bufio.Reader, resp *httpwire.Response) {
	t.Helper()
	n, err := resp.ReadHead(br)
	if err != nil || resp.StatusCode != 200 || n != 512 {
		t.Fatalf("response %+v, n %d, %v", resp, n, err)
	}
	if _, err := br.Discard(int(n)); err != nil {
		t.Fatalf("body: %v", err)
	}
}

// TestRelayAllocBudget is the allocation gate `make verify` runs on the relay
// path: keep-alive requests through an in-process dispatcher and backend,
// counted over the whole process. Nothing is left: the four heads — this
// client's parse of the response, the dispatcher's of the request and of the
// backend's response, the backend's of the request — go into buffers their
// messages keep, and the request record, its channel and the backend's usage
// line are the connection's. The budget of one is not the relay's: it is room
// for a collection emptying the wire and timer pools mid-run, after which the
// next request builds them again.
func TestRelayAllocBudget(t *testing.T) {
	addr, srv := startServer(t, Config{
		Subscribers: defaultSubs(),
		Backends:    []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		Scheduler:   core.Config{Cycle: time.Millisecond},
		AcctCycle:   noPolls,
	})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(c)
	var resp httpwire.Response
	perReq := allocsPerRequest(t, func() {
		if _, err := c.Write(allocGateRequest); err != nil {
			t.Fatalf("write: %v", err)
		}
		readPage(t, br, &resp)
	})
	if perReq > 1 {
		t.Errorf("%.1f allocations per relayed keep-alive request, budget 1", perReq)
	}
	if dials, _ := poolCounts(srv); dials != 1 {
		t.Errorf("%d backend dials, want the one connection reused throughout", dials)
	}
}

// TestConnPerRequestAllocBudget is the same gate on the accept path: one
// client connection per request through the same stack. Of the 20 or so
// counted, this client's dial and close are about two thirds and
// net.Accept's six the rest; the dispatcher's own share is none — the
// handler goroutine starts from a func the pooled wire already holds, and the
// wire brings its head buffers with it.
func TestConnPerRequestAllocBudget(t *testing.T) {
	addr, _ := startServer(t, Config{
		Subscribers: defaultSubs(),
		Backends:    []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
		Scheduler:   core.Config{Cycle: time.Millisecond},
		AcctCycle:   noPolls,
	})
	br := bufio.NewReader(nil)
	var resp httpwire.Response
	perReq := allocsPerRequest(t, func() {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(30 * time.Second))
		if _, err := c.Write(allocGateRequest); err != nil {
			t.Fatalf("write: %v", err)
		}
		br.Reset(c)
		readPage(t, br, &resp)
	})
	if perReq > 24 {
		t.Errorf("%.1f allocations per one-connection request, budget 24", perReq)
	}
}
