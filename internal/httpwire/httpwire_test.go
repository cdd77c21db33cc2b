package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadRequestBasic(t *testing.T) {
	raw := "GET /index.html HTTP/1.1\r\nHost: www.example.com\r\nX-Test: 1\r\n\r\n"
	req, err := ParseRequest([]byte(raw))
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if req.Method != "GET" || req.Target != "/index.html" || req.Proto != "HTTP/1.1" {
		t.Errorf("request line parsed as %q %q %q", req.Method, req.Target, req.Proto)
	}
	if req.Host != "www.example.com" {
		t.Errorf("Host = %q", req.Host)
	}
	if req.Header["X-Test"] != "1" {
		t.Errorf("X-Test = %q", req.Header["X-Test"])
	}
	if req.Path() != "/index.html" {
		t.Errorf("Path = %q", req.Path())
	}
	if len(req.Body) != 0 {
		t.Errorf("body = %q, want empty", req.Body)
	}
}

func TestReadRequestAbsoluteTarget(t *testing.T) {
	raw := "GET http://www.example.com/a/b?q=1 HTTP/1.0\r\n\r\n"
	req, err := ParseRequest([]byte(raw))
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if req.Host != "www.example.com" {
		t.Errorf("Host = %q", req.Host)
	}
	if req.Path() != "/a/b?q=1" {
		t.Errorf("Path = %q", req.Path())
	}
}

func TestReadRequestAbsoluteTargetNoPath(t *testing.T) {
	req, err := ParseRequest([]byte("GET http://h.example HTTP/1.0\r\n\r\n"))
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if req.Host != "h.example" || req.Path() != "/" {
		t.Errorf("host/path = %q %q", req.Host, req.Path())
	}
}

func TestReadRequestWithBody(t *testing.T) {
	raw := "POST /submit HTTP/1.0\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello"
	req, err := ParseRequest([]byte(raw))
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if string(req.Body) != "hello" {
		t.Errorf("body = %q", req.Body)
	}
}

func TestReadRequestHeaderCanonicalization(t *testing.T) {
	raw := "GET / HTTP/1.0\r\nhOsT: h.example\r\ncontent-type:text/html\r\n\r\n"
	req, err := ParseRequest([]byte(raw))
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if req.Host != "h.example" {
		t.Errorf("Host = %q", req.Host)
	}
	if req.Header["Content-Type"] != "text/html" {
		t.Errorf("Content-Type = %q", req.Header["Content-Type"])
	}
}

func TestReadRequestErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{"empty", ""},
		{"no protocol", "GET /\r\n\r\n"},
		{"bad protocol", "GET / FTP/1.0\r\n\r\n"},
		{"bad header", "GET / HTTP/1.0\r\nbroken\r\n\r\n"},
		{"bad content length", "GET / HTTP/1.0\r\nContent-Length: x\r\n\r\n"},
		{"negative content length", "GET / HTTP/1.0\r\nContent-Length: -4\r\n\r\n"},
		{"short body", "POST / HTTP/1.0\r\nContent-Length: 10\r\n\r\nhi"},
		{"truncated head", "GET / HTTP/1.0\r\nHost: h"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseRequest([]byte(tt.give)); err == nil {
				t.Errorf("ParseRequest(%q) must fail", tt.give)
			}
		})
	}
}

func TestBodyTooLarge(t *testing.T) {
	raw := "POST / HTTP/1.0\r\nContent-Length: 999999999999\r\n\r\n"
	_, err := ParseRequest([]byte(raw))
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Errorf("err = %v, want ErrBodyTooLarge", err)
	}
}

func TestRequestWriteRoundTrip(t *testing.T) {
	req := &Request{
		Method: "POST",
		Target: "/api",
		Proto:  "HTTP/1.1",
		Host:   "h.example",
		Header: map[string]string{"X-A": "1", "X-B": "2"},
		Body:   []byte("payload"),
	}
	var buf bytes.Buffer
	if err := req.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	if got.Method != req.Method || got.Target != req.Target || got.Host != req.Host {
		t.Errorf("round trip head = %+v", got)
	}
	if string(got.Body) != "payload" {
		t.Errorf("round trip body = %q", got.Body)
	}
	if got.Header["X-A"] != "1" || got.Header["X-B"] != "2" {
		t.Errorf("round trip headers = %v", got.Header)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{
		StatusCode: 200,
		Header:     map[string]string{"Content-Type": "text/html"},
		Body:       []byte("<html></html>"),
	}
	var buf bytes.Buffer
	if err := resp.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if got.StatusCode != 200 || got.Status != "OK" {
		t.Errorf("status = %d %q", got.StatusCode, got.Status)
	}
	if string(got.Body) != "<html></html>" {
		t.Errorf("body = %q", got.Body)
	}
	if got.Header["Content-Type"] != "text/html" {
		t.Errorf("headers = %v", got.Header)
	}
}

func TestReadResponseErrors(t *testing.T) {
	tests := []string{
		"",
		"BANANA\r\n\r\n",
		"HTTP/1.0 abc OK\r\n\r\n",
	}
	for _, raw := range tests {
		if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("ReadResponse(%q) must fail", raw)
		}
	}
}

func TestStatusText(t *testing.T) {
	tests := []struct {
		code int
		want string
	}{
		{200, "OK"},
		{503, "Service Unavailable"},
		{418, "Status 418"},
	}
	for _, tt := range tests {
		if got := StatusText(tt.code); got != tt.want {
			t.Errorf("StatusText(%d) = %q, want %q", tt.code, got, tt.want)
		}
	}
}

// Property: any request built from sane components survives a write/read
// round trip with its body intact.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		body := make([]byte, rng.Intn(2048))
		rng.Read(body)
		req := &Request{
			Method: []string{"GET", "POST", "HEAD"}[rng.Intn(3)],
			Target: "/p" + strings.Repeat("x", rng.Intn(30)),
			Proto:  "HTTP/1.0",
			Host:   "host.example",
			Header: map[string]string{"X-Seed": "s"},
			Body:   body,
		}
		var buf bytes.Buffer
		if err := req.Write(&buf); err != nil {
			return false
		}
		got, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return got.Method == req.Method && got.Target == req.Target &&
			got.Host == req.Host && reflect.DeepEqual(got.Body, body) ||
			len(body) == 0 && len(got.Body) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refWriteHeaders is the fmt-based header serialisation Write used before it
// was hand-rolled: the reference the wire bytes are pinned against.
func refWriteHeaders(buf *bytes.Buffer, header map[string]string, bodyLen int, skip string) {
	var keys []string
	for k := range header {
		if k != skip && k != "Content-Length" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(buf, "%s: %s\r\n", k, header[k])
	}
	if bodyLen > 0 || header["Content-Length"] != "" {
		fmt.Fprintf(buf, "Content-Length: %d\r\n", bodyLen)
	}
	buf.WriteString("\r\n")
}

func manyHeaders(n int) map[string]string {
	h := make(map[string]string, n)
	for i := 0; i < n; i++ {
		h[fmt.Sprintf("X-H%02d", (i*7)%n)] = strings.Repeat("v", i)
	}
	return h
}

func TestRequestWriteWireBytes(t *testing.T) {
	tests := []*Request{
		{Method: "GET", Target: "/static/512.html", Proto: "HTTP/1.1", Host: "www.site1.example",
			Header: map[string]string{"Host": "www.site1.example", "X-Gage-Subscriber": "site1", "Connection": "keep-alive"}},
		{Method: "GET", Target: "/", Header: nil},
		{Method: "POST", Target: "/api", Proto: "HTTP/1.0", Header: map[string]string{"Host": "kept.example", "Content-Length": "99"}, Body: []byte("payload")},
		{Method: "PUT", Target: "/empty", Host: "h", Header: map[string]string{"Content-Length": "0"}},
		{Method: "GET", Target: "/many", Host: "h", Header: manyHeaders(40)},
	}
	for _, req := range tests {
		var want bytes.Buffer
		proto := req.Proto
		if proto == "" {
			proto = "HTTP/1.0"
		}
		fmt.Fprintf(&want, "%s %s %s\r\n", req.Method, req.Target, proto)
		if req.Host != "" {
			fmt.Fprintf(&want, "Host: %s\r\n", req.Host)
		}
		refWriteHeaders(&want, req.Header, len(req.Body), "Host")
		want.Write(req.Body)
		var got bytes.Buffer
		if err := req.Write(&got); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("request %s %s wire bytes:\n got %q\nwant %q", req.Method, req.Target, got.Bytes(), want.Bytes())
		}
	}
}

func TestResponseWriteWireBytes(t *testing.T) {
	tests := []*Response{
		{StatusCode: 200, Header: map[string]string{"Content-Type": "text/html", "X-Gage-Usage": "1070500,250000,912", "Connection": "keep-alive"}, Body: bytes.Repeat([]byte("a"), 512)},
		{StatusCode: 503, Header: map[string]string{}},
		{StatusCode: 418, Proto: "HTTP/1.1", Header: nil},
		{StatusCode: 200, Status: "Fine", Header: map[string]string{"Content-Length": "7", "Host": "not-skipped"}},
		{StatusCode: -12, Header: manyHeaders(17), Body: []byte("x")},
	}
	for _, resp := range tests {
		var want bytes.Buffer
		proto, status := resp.Proto, resp.Status
		if proto == "" {
			proto = "HTTP/1.0"
		}
		if status == "" {
			status = StatusText(resp.StatusCode)
		}
		fmt.Fprintf(&want, "%s %d %s\r\n", proto, resp.StatusCode, status)
		refWriteHeaders(&want, resp.Header, len(resp.Body), "")
		want.Write(resp.Body)
		var got bytes.Buffer
		if err := resp.Write(&got); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("response %d wire bytes:\n got %q\nwant %q", resp.StatusCode, got.Bytes(), want.Bytes())
		}
	}
}

// The serialisers size their buffer up front: one allocation per Write for
// the usual handful of headers.
func TestWriteAllocatesOnce(t *testing.T) {
	req := &Request{Method: "GET", Target: "/static/512.html", Proto: "HTTP/1.1", Host: "www.site1.example",
		Header: map[string]string{"Host": "www.site1.example", "X-Gage-Subscriber": "site1", "X-Gage-Trace": "000100000000001f"}}
	resp := &Response{StatusCode: 200, Header: map[string]string{"Content-Type": "text/html", "X-Gage-Usage": "1,2,3"}, Body: make([]byte, 512)}
	if n := testing.AllocsPerRun(100, func() { _ = req.Write(io.Discard) }); n > 1 {
		t.Errorf("Request.Write allocates %.0f times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = resp.Write(io.Discard) }); n > 1 {
		t.Errorf("Response.Write allocates %.0f times, want 1", n)
	}
}
