package backend

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"gage/internal/httpwire"
)

// persistentConn is one client connection a test drives request by request.
type persistentConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialPersistent(t *testing.T, addr string) *persistentConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatalf("deadline: %v", err)
	}
	return &persistentConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (pc *persistentConn) do(proto string, header map[string]string) *httpwire.Response {
	pc.t.Helper()
	req := &httpwire.Request{Method: "GET", Target: "/static/256.html", Proto: proto, Host: "h", Header: header}
	if err := req.Write(pc.conn); err != nil {
		pc.t.Fatalf("write: %v", err)
	}
	resp, err := httpwire.ReadResponse(pc.br)
	if err != nil {
		pc.t.Fatalf("read response: %v", err)
	}
	if resp.StatusCode != 200 || len(resp.Body) != 256 {
		pc.t.Fatalf("status %d, %d body bytes", resp.StatusCode, len(resp.Body))
	}
	return resp
}

// hungUp reports whether the server has closed the connection: the next read
// ends in EOF (or a reset) rather than data or the test's own deadline.
func (pc *persistentConn) hungUp() bool {
	_, err := pc.br.ReadByte()
	if err == nil {
		return false
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return false
	}
	return true
}

func TestKeepAliveServesManyRequestsEachChargedOnce(t *testing.T) {
	tests := []struct {
		name, proto string
		header      map[string]string
	}{
		{"HTTP/1.1 default", "HTTP/1.1", map[string]string{SubscriberHeader: "site1"}},
		{"HTTP/1.0 opt-in", "HTTP/1.0", map[string]string{SubscriberHeader: "site1", "Connection": "keep-alive"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			addr, srv := startBackend(t, Config{Node: 1})
			pc := dialPersistent(t, addr)
			const n = 25
			for i := 0; i < n; i++ {
				resp := pc.do(tt.proto, tt.header)
				if !strings.EqualFold(resp.Header["Connection"], "keep-alive") {
					t.Fatalf("request %d: Connection = %q, want the keep-alive echo", i, resp.Header["Connection"])
				}
			}
			completed := srv.Report().BySubscriber["site1"].Completed
			if completed != n {
				t.Errorf("completed = %d over one connection, want %d (each request charged once)", completed, n)
			}
		})
	}
}

func TestKeepAliveOneShotPeersGetOneRequestPerConnection(t *testing.T) {
	tests := []struct {
		name, proto string
		header      map[string]string
	}{
		{"HTTP/1.1 Connection: close", "HTTP/1.1", map[string]string{"Connection": "close"}},
		{"HTTP/1.0 without keep-alive", "HTTP/1.0", nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			addr, _ := startBackend(t, Config{Node: 1})
			pc := dialPersistent(t, addr)
			resp := pc.do(tt.proto, tt.header)
			if c, ok := resp.Header["Connection"]; ok {
				t.Errorf("Connection = %q on a one-shot exchange, want none", c)
			}
			if !pc.hungUp() {
				t.Error("the backend kept a one-shot connection open")
			}
		})
	}
}

func TestKeepAliveCloseReturnsPromptlyWithIdleConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := New(Config{Node: 1})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	var conns []*persistentConn
	for i := 0; i < 4; i++ {
		pc := dialPersistent(t, ln.Addr().String())
		pc.do("HTTP/1.1", nil)
		conns = append(conns, pc)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if el := time.Since(start); el >= time.Second {
		t.Errorf("Close took %v with idle keep-alive connections open; it must unpark their readers", el)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve: %v", err)
	}
	for i, pc := range conns {
		if !pc.hungUp() {
			t.Errorf("connection %d still open after Close", i)
		}
		// Unparked silently: no stray 400 for the peer to misread.
		if pc.br.Buffered() > 0 {
			t.Errorf("connection %d: Close left %d unsolicited bytes", i, pc.br.Buffered())
		}
	}
}

func TestKeepAliveDeadlineRenewsPerRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := New(Config{Node: 1})
	srv.idleTimeout = 400 * time.Millisecond
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	pc := dialPersistent(t, ln.Addr().String())
	// Five requests spaced inside the timeout span well over one timeout: a
	// deadline set once per connection would cut the fourth.
	for i := 0; i < 5; i++ {
		pc.do("HTTP/1.1", nil)
		time.Sleep(150 * time.Millisecond)
	}
	// Then the connection idles past the timeout and the backend hangs up,
	// without writing anything the peer could take for a reply.
	if _, err := pc.br.ReadByte(); err != io.EOF {
		t.Errorf("idle connection read = %v, want EOF once the idle timeout passes", err)
	}
}
