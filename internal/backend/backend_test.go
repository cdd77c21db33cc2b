package backend

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"gage/internal/httpwire"
	"gage/internal/qos"
)

// TestMain runs the suite with stale heads scribbled: whatever the server
// keeps of a request past the connection's next one reads as 0xFF bytes.
func TestMain(m *testing.M) {
	httpwire.ScribbleStaleHeads.Store(true)
	os.Exit(m.Run())
}

// startBackend runs a backend on a loopback listener.
func startBackend(t *testing.T, cfg Config) (addr string, srv *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv = New(cfg)
	go func() {
		// Serve exits cleanly on Close.
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return ln.Addr().String(), srv
}

// get performs one HTTP request against addr.
func get(t *testing.T, addr, host, path string, header map[string]string) *httpwire.Response {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	req := &httpwire.Request{Method: "GET", Target: path, Proto: "HTTP/1.0", Host: host, Header: header}
	if err := req.Write(conn); err != nil {
		t.Fatalf("write: %v", err)
	}
	resp, err := httpwire.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp
}

func TestServesSyntheticPage(t *testing.T) {
	addr, _ := startBackend(t, Config{Node: 1})
	resp := get(t, addr, "h.example", "/static/4096.html", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(resp.Body) != 4096 {
		t.Errorf("body = %d bytes, want 4096", len(resp.Body))
	}
	usage, err := ParseUsageHeader(resp.Header[UsageHeader])
	if err != nil {
		t.Fatalf("usage header %q: %v", resp.Header[UsageHeader], err)
	}
	if usage.CPUTime <= 0 || usage.NetBytes != 4096+400 {
		t.Errorf("usage = %v", usage)
	}
}

func TestDefaultAndCGISizes(t *testing.T) {
	addr, _ := startBackend(t, Config{Node: 1})
	if got := len(get(t, addr, "h", "/index.html", nil).Body); got != 6144 {
		t.Errorf("default page = %d bytes, want 6144", got)
	}
	if got := len(get(t, addr, "h", "/cgi-bin/app", nil).Body); got != 3072 {
		t.Errorf("cgi page = %d bytes, want 3072", got)
	}
}

func TestAccountingPerSubscriber(t *testing.T) {
	addr, srv := startBackend(t, Config{Node: 3})
	get(t, addr, "h", "/static/1000.html", map[string]string{SubscriberHeader: "site1"})
	get(t, addr, "h", "/static/1000.html", map[string]string{SubscriberHeader: "site1"})
	get(t, addr, "h", "/static/2000.html", map[string]string{SubscriberHeader: "site2"})

	rep := srv.Report()
	if rep.Node != 3 {
		t.Errorf("node = %d, want 3", rep.Node)
	}
	if got := rep.BySubscriber["site1"].Completed; got != 2 {
		t.Errorf("site1 completed = %d, want 2", got)
	}
	if got := rep.BySubscriber["site2"].Completed; got != 1 {
		t.Errorf("site2 completed = %d, want 1", got)
	}
	if rep.Total.NetBytes != (1000+400)*2+(2000+400) {
		t.Errorf("total net = %d", rep.Total.NetBytes)
	}
	// The cycle reset: a second report is empty.
	if rep := srv.Report(); len(rep.BySubscriber) != 0 {
		t.Errorf("second report = %+v, want empty", rep.BySubscriber)
	}
}

func TestReportEndpoint(t *testing.T) {
	addr, _ := startBackend(t, Config{Node: 7})
	get(t, addr, "h", "/static/500.html", map[string]string{SubscriberHeader: "a"})
	resp := get(t, addr, "", ReportPath, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("report status = %d", resp.StatusCode)
	}
	rep, err := DecodeReport(resp.Body)
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if rep.Node != 7 {
		t.Errorf("node = %d, want 7", rep.Node)
	}
	if rep.BySubscriber["a"].Completed != 1 {
		t.Errorf("a completed = %d, want 1", rep.BySubscriber["a"].Completed)
	}
}

func TestMalformedRequestGets400(t *testing.T) {
	tests := map[string][]byte{
		"nonsense": []byte("NONSENSE\r\n\r\n"),
		// Framing the backend does not speak: answering it as body-less
		// would take the chunks for the next request.
		"chunked": []byte("POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"),
		// A head that never ends is cut off at httpwire.MaxHeadBytes.
		"endless head": bytes.Repeat([]byte("a"), 1<<20),
	}
	for name, raw := range tests {
		t.Run(name, func(t *testing.T) {
			addr, _ := startBackend(t, Config{Node: 1})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			// The backend stops reading an endless head at the cap, so the
			// tail of that write may fail.
			go func() { _, _ = conn.Write(raw) }()
			br := bufio.NewReader(conn)
			resp, err := httpwire.ReadResponse(br)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if resp.StatusCode != 400 {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
			if _, err := br.ReadByte(); err == nil {
				t.Error("the connection stayed open after the 400")
			}
		})
	}
}

// TestBackendServeAllocs: a kept-alive connection reuses its request (head
// buffer included), its response and one scratch for every page and composes
// the usage line in that scratch, so serving one allocates nothing — where
// rendering alone used to cost six allocations and parsing eight. The count
// is the whole process's, so this client reads into a buffer it keeps. The
// scribble hook is off for the count: a scribbled head is replaced.
func TestBackendServeAllocs(t *testing.T) {
	httpwire.ScribbleStaleHeads.Store(false)
	t.Cleanup(func() { httpwire.ScribbleStaleHeads.Store(true) })
	addr, _ := startBackend(t, Config{Node: 1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	request := []byte("GET /static/512.html HTTP/1.1\r\nX-Gage-Subscriber: site1\r\nX-Gage-Trace: 000100000000001f\r\n\r\n")
	if _, err := conn.Write(request); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The first response, read as it comes and then parsed: every later one
	// is the same bytes.
	first := make([]byte, 0, 4096)
	for end := -1; end < 0 || len(first) < end+4+512; end = bytes.Index(first, []byte("\r\n\r\n")) {
		n, err := conn.Read(first[len(first):cap(first)])
		if err != nil {
			t.Fatalf("read: %v after %q", err, first)
		}
		first = first[:len(first)+n]
	}
	resp, err := httpwire.ReadResponse(bufio.NewReader(bytes.NewReader(first)))
	if err != nil || resp.StatusCode != 200 || len(resp.Body) != 512 || resp.Header["X-Gage-Trace"] != "000100000000001f" {
		t.Fatalf("response %+v, %v", resp, err)
	}
	if _, err := ParseUsageHeader(resp.Header[UsageHeader]); err != nil {
		t.Fatalf("usage header %q: %v", resp.Header[UsageHeader], err)
	}
	page := make([]byte, len(first))
	exchange := func() {
		if _, err := conn.Write(request); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := io.ReadFull(conn, page); err != nil || !bytes.Equal(page, first) {
			t.Fatalf("response %q, %v, want the first one again", page, err)
		}
	}
	// The race detector adds an allocation of its own.
	want := 0.0
	if raceEnabled {
		want = 1
	}
	if n := testing.AllocsPerRun(200, exchange); n > want {
		t.Errorf("%.1f allocations per page served on a kept-alive connection, want %.0f", n, want)
	}
}

func TestParseUsageHeaderErrors(t *testing.T) {
	for _, bad := range []string{"", "1,2", "a,b,c", "1,2,3,4"} {
		if _, err := ParseUsageHeader(bad); err == nil {
			t.Errorf("ParseUsageHeader(%q) must fail", bad)
		}
	}
	v, err := ParseUsageHeader(" 100 , 200 , 300 ")
	if err != nil {
		t.Fatalf("spaced header: %v", err)
	}
	want := qos.Vector{CPUTime: 100, DiskTime: 200, NetBytes: 300}
	if v != want {
		t.Errorf("parsed = %v, want %v", v, want)
	}
}

func TestDecodeReportRejectsGarbage(t *testing.T) {
	if _, err := DecodeReport([]byte("{broken")); err == nil {
		t.Error("garbage report must fail")
	}
}

func TestPageSize(t *testing.T) {
	tests := []struct {
		path string
		want int
	}{
		{"/static/1234.html", 1234},
		{"/deep/path/42.html", 42},
		{"/cgi-bin/app", 3 * 1024},
		{"/index.html", 6 * 1024},
		{"/static/notanumber.html", 6 * 1024},
		{"/static/0.html", 0},
	}
	for _, tt := range tests {
		if got := pageSize(tt.path); got != tt.want {
			t.Errorf("pageSize(%q) = %d, want %d", tt.path, got, tt.want)
		}
	}
}

func TestDelayHoldsResponse(t *testing.T) {
	addr, _ := startBackend(t, Config{Node: 1, Delay: 1.0})
	start := time.Now()
	resp := get(t, addr, "h", "/static/6144.html", nil)
	elapsed := time.Since(start)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// 6 KB page: ≈1.85 ms CPU + ≈0.8 ms disk modeled time.
	if elapsed < 2*time.Millisecond {
		t.Errorf("elapsed = %v, want ≥ ≈2.6ms of simulated service time", elapsed)
	}
	if !strings.Contains(resp.Header["Content-Type"], "text/html") {
		t.Errorf("content type = %q", resp.Header["Content-Type"])
	}
}
