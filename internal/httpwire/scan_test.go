package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestMain runs the suite with stale heads scribbled: a test that reads a
// string past the next read of its message sees 0xFF bytes, not the previous
// request's look-alike.
func TestMain(m *testing.M) {
	ScribbleStaleHeads.Store(true)
	os.Exit(m.Run())
}

// keepHeads switches the scribble hook off for the rest of a test: for one
// that counts allocations, and for the dirty-reuse case, where the buffer a
// message really keeps is the thing under test.
func keepHeads(t *testing.T) {
	ScribbleStaleHeads.Store(false)
	t.Cleanup(func() { ScribbleStaleHeads.Store(true) })
}

// TestScannerMatchesReference walks the error-table cases, both fuzz corpora
// and a few multi-message streams through every entry point, against the
// line-by-line parser kept in ref_test.go.
func TestScannerMatchesReference(t *testing.T) {
	requests := append(requestSeeds(),
		[]byte("GET /\r\n\r\n"),
		[]byte("GET / FTP/1.0\r\n\r\n"),
		[]byte("GET / HTTP/1.0\r\nbroken\r\n\r\n"),
		[]byte("GET / HTTP/1.0\r\nContent-Length: x\r\n\r\n"),
		[]byte("GET / HTTP/1.0\r\nContent-Length: -4\r\n\r\n"),
		[]byte("POST / HTTP/1.0\r\nContent-Length: 10\r\n\r\nhi"),
		[]byte("GET / HTTP/1.0\r\nHost: h"),
		[]byte("POST / HTTP/1.0\r\nContent-Length: 999999999999\r\n\r\n"),
		[]byte("GET /index.html HTTP/1.1\r\nHost: www.example.com\r\nX-Test: 1\r\n\r\n"),
		[]byte("GET / HTTP/1.0\r\nhOsT: h.example\r\ncontent-type:text/html\r\n\r\n"),
		[]byte("GET / HTTP/1.1 trailing words\r\n : empty key\r\n\r\n"),
	)
	// Each input is also parsed into a message that still holds its
	// predecessor in the table.
	for k, data := range requests {
		diffRequest(t, requests[(k+len(requests)-1)%len(requests)], data)
	}
	responses := responseSeeds()
	for k, data := range responses {
		diffResponse(t, responses[(k+len(responses)-1)%len(responses)], data)
	}
}

// TestPipelinedMessagesEachParse: two requests (and two response heads) that
// arrive in one read are each parsed from where the previous one ended — the
// scanner takes its own message out of the reader and nothing more.
func TestPipelinedMessagesEachParse(t *testing.T) {
	stream := "POST /one HTTP/1.1\r\nHost: a\r\nContent-Length: 3\r\n\r\nabc" +
		"GET /two HTTP/1.1\r\nHost: b\r\n\r\n"
	br := bufio.NewReader(strings.NewReader(stream))
	var req Request
	if err := req.Read(br); err != nil || req.Target != "/one" || string(req.Body) != "abc" {
		t.Fatalf("first request: %+v, %v", req, err)
	}
	if err := req.Read(br); err != nil || req.Target != "/two" || req.Host != "b" || req.Body != nil {
		t.Fatalf("second request: %+v, %v", req, err)
	}
	if _, ok := req.Header["Content-Length"]; ok {
		t.Error("the reused message kept the first request's Content-Length")
	}
	if err := req.Read(br); err != io.EOF {
		t.Errorf("third read = %v, want a bare io.EOF", err)
	}

	stream = "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.0 404 Not Found\r\n\r\n"
	br = bufio.NewReader(strings.NewReader(stream))
	var resp Response
	n, err := resp.ReadHead(br)
	if err != nil || n != 2 || resp.StatusCode != 200 {
		t.Fatalf("first head: %+v, n %d, %v", resp, n, err)
	}
	if body, _ := br.Peek(int(n)); string(body) != "hi" {
		t.Fatalf("the reader continues %q after the head, want the body", body)
	}
	_, _ = br.Discard(int(n))
	if n, err = resp.ReadHead(br); err != nil || n != 0 || resp.StatusCode != 404 || resp.Status != "Not Found" {
		t.Fatalf("second head: %+v, n %d, %v", resp, n, err)
	}
}

// TestHeadLargerThanReaderBuffer: a head that outgrows the bufio.Reader is
// accumulated on the side and still parses, up to the cap; the body behind
// it is left in place.
func TestHeadLargerThanReaderBuffer(t *testing.T) {
	long := strings.Repeat("v", 3*4096)
	raw := "GET /big HTTP/1.1\r\nHost: h\r\nX-Long: " + long + "\r\nContent-Length: 4\r\n\r\nbodyNEXT"
	br := bufio.NewReaderSize(strings.NewReader(raw), 4096)
	var req Request
	if err := req.Read(br); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if req.Header["X-Long"] != long || req.Host != "h" || string(req.Body) != "body" {
		t.Errorf("parsed %q host %q body %q", req.Target, req.Host, req.Body)
	}
	if next, _ := io.ReadAll(br); string(next) != "NEXT" {
		t.Errorf("reader continues %q, want NEXT", next)
	}

	// Exactly at the cap parses; one byte over is refused.
	fit := "GET / HTTP/1.1\r\nX-Pad: \r\n\r\n"
	atCap := strings.Replace(fit, "X-Pad: ", "X-Pad: "+strings.Repeat("p", MaxHeadBytes-len(fit)), 1)
	if len(atCap) != MaxHeadBytes {
		t.Fatalf("test bug: head of %d bytes", len(atCap))
	}
	if _, err := ReadRequest(bufio.NewReaderSize(strings.NewReader(atCap), 4096)); err != nil {
		t.Errorf("a head of exactly MaxHeadBytes: %v", err)
	}
	over := strings.Replace(atCap, "X-Pad: ", "X-Pad: p", 1)
	for name, err := range map[string]error{
		"small reader": func() error { _, err := ReadRequest(bufio.NewReaderSize(strings.NewReader(over), 4096)); return err }(),
		"large reader": func() error { _, err := ReadRequest(bufio.NewReaderSize(strings.NewReader(over), 1<<20)); return err }(),
		"ParseRequest": func() error { _, err := ParseRequest([]byte(over)); return err }(),
	} {
		if !errors.Is(err, ErrHeadTooLarge) {
			t.Errorf("%s: a head of MaxHeadBytes+1 = %v, want ErrHeadTooLarge", name, err)
		}
	}
}

// endless yields one byte value forever and counts what was taken from it.
type endless struct {
	c    byte
	read int
}

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = e.c
	}
	e.read += len(p)
	return len(p), nil
}

// TestHeadIsBounded: a peer that never sends a newline used to grow the
// parser's line buffer for as long as it kept sending. Now the parse fails
// once MaxHeadBytes have been searched, having read and allocated no more
// than a small multiple of the cap — however much the peer has to offer.
func TestHeadIsBounded(t *testing.T) {
	parses := map[string]func(*bufio.Reader) error{
		"request":  func(br *bufio.Reader) error { return new(Request).Read(br) },
		"response": func(br *bufio.Reader) error { _, err := new(Response).ReadHead(br); return err },
	}
	for name, parse := range parses {
		src := &endless{c: 'a'}
		br := bufio.NewReaderSize(io.LimitReader(src, 1<<20), 4096)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := parse(br)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrHeadTooLarge) {
			t.Errorf("%s: a 1 MiB line without a newline = %v, want ErrHeadTooLarge", name, err)
		}
		if src.read > MaxHeadBytes+4096 {
			t.Errorf("%s: read %d bytes before giving up, want at most the cap and one buffer", name, src.read)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*MaxHeadBytes {
			t.Errorf("%s: allocated %d bytes refusing the head, want under %d", name, grew, 4*MaxHeadBytes)
		}
	}
	// CRs alone never end a head either.
	br := bufio.NewReaderSize(io.LimitReader(&endless{c: '\r'}, 1<<20), 4096)
	if err := new(Request).Read(br); !errors.Is(err, ErrHeadTooLarge) {
		t.Errorf("1 MiB of CRs = %v, want ErrHeadTooLarge", err)
	}
}

// TestTransferEncodingIsRefused: the parser frames by Content-Length only. A
// message that declares a Transfer-Encoding used to parse as body-less,
// leaving its chunks in the reader to be taken for the next message.
func TestTransferEncodingIsRefused(t *testing.T) {
	req := "POST /up HTTP/1.1\r\nHost: h\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(req))); !errors.Is(err, ErrMalformedRequest) {
		t.Errorf("ReadRequest = %v, want ErrMalformedRequest", err)
	}
	if _, err := ParseRequest([]byte(req)); !errors.Is(err, ErrMalformedRequest) {
		t.Errorf("ParseRequest = %v, want ErrMalformedRequest", err)
	}
	resp := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(resp))); !errors.Is(err, ErrMalformedResponse) {
		t.Errorf("ReadResponse = %v, want ErrMalformedResponse", err)
	}
	if _, err := new(Response).ReadHead(bufio.NewReader(strings.NewReader(resp))); !errors.Is(err, ErrMalformedResponse) {
		t.Errorf("ReadHead = %v, want ErrMalformedResponse", err)
	}
}

// TestBadContentLengthNamesItsMessage: a response's bad Content-Length used
// to be reported as a malformed request.
func TestBadContentLengthNamesItsMessage(t *testing.T) {
	for _, cl := range []string{"x", "-1", ""} {
		raw := "HTTP/1.0 200 OK\r\nContent-Length: " + cl + "\r\n\r\n"
		_, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)))
		if !errors.Is(err, ErrMalformedResponse) || errors.Is(err, ErrMalformedRequest) {
			t.Errorf("response Content-Length %q = %v, want ErrMalformedResponse only", cl, err)
		}
		raw = "GET / HTTP/1.0\r\nContent-Length: " + cl + "\r\n\r\n"
		if _, err := ParseRequest([]byte(raw)); !errors.Is(err, ErrMalformedRequest) {
			t.Errorf("request Content-Length %q = %v, want ErrMalformedRequest", cl, err)
		}
	}
}

// TestResetKeepsMapAndBuffer: Reset empties a message down to what the next
// read can use — the Header map, emptied, and the head buffer — and lets the
// buffer go too once one oversized head has grown it past maxKeptHead.
func TestResetKeepsMapAndBuffer(t *testing.T) {
	keepHeads(t)
	usual := "GET /p HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\nhi"
	big := "GET /p HTTP/1.1\r\nX-Pad: " + strings.Repeat("p", 60<<10) + "\r\n\r\n"
	var req Request
	if err := req.Read(bufio.NewReader(strings.NewReader(usual))); err != nil {
		t.Fatal(err)
	}
	header := req.Header
	req.Reset()
	if req.Method != "" || req.Target != "" || req.Proto != "" || req.Host != "" || req.Body != nil {
		t.Errorf("a reset request still holds %+v", req)
	}
	if len(req.Header) != 0 || len(header) != 0 || req.Header == nil || cap(req.head) == 0 || len(req.head) != 0 {
		t.Errorf("a reset request has header %v (the old map now %v) and a head buffer of %d/%d, want both kept and empty",
			req.Header, header, len(req.head), cap(req.head))
	}
	if err := req.Read(bufio.NewReader(strings.NewReader(big))); err != nil {
		t.Fatal(err)
	}
	if req.Reset(); cap(req.head) != 0 {
		t.Errorf("a reset request kept the %d-byte buffer a 60 KiB head grew, want it dropped", cap(req.head))
	}

	var resp Response
	if _, err := resp.ReadHead(bufio.NewReader(strings.NewReader("HTTP/1.0 200 OK\r\nX-A: 1\r\n\r\n"))); err != nil {
		t.Fatal(err)
	}
	resp.Reset()
	if resp.Proto != "" || resp.StatusCode != 0 || resp.Status != "" || len(resp.Header) != 0 || resp.Header == nil || cap(resp.head) == 0 {
		t.Errorf("a reset response holds %+v, want an empty map and an empty buffer", resp)
	}
	if _, err := resp.ReadHead(bufio.NewReader(strings.NewReader(strings.Replace(big, "GET /p HTTP/1.1", "HTTP/1.0 200 OK", 1)))); err != nil {
		t.Fatal(err)
	}
	if resp.Reset(); cap(resp.head) != 0 {
		t.Errorf("a reset response kept the %d-byte buffer a 60 KiB head grew, want it dropped", cap(resp.head))
	}
}

// TestStaleHeadIsScribbled is the hook TestMain switches on, seen from where
// it bites: a string kept from a request reads as 0xFF bytes once its message
// has read another, and a clone taken in time does not.
func TestStaleHeadIsScribbled(t *testing.T) {
	br := bufio.NewReader(strings.NewReader("GET /one HTTP/1.1\r\nHost: first.example\r\n\r\nGET /one HTTP/1.1\r\nHost: first.example\r\n\r\n"))
	var req Request
	if err := req.Read(br); err != nil {
		t.Fatal(err)
	}
	kept, cloned := req.Host, strings.Clone(req.Host)
	if err := req.Read(br); err != nil {
		t.Fatal(err)
	}
	if kept != strings.Repeat("\xff", len("first.example")) {
		t.Errorf("a view kept past its request reads %q, want it scribbled", kept)
	}
	if cloned != "first.example" || req.Host != "first.example" {
		t.Errorf("the clone reads %q and the second request's host %q, want first.example twice", cloned, req.Host)
	}
}

// TestParseAllocations pins what the scan-in-place design buys: a parse into
// a reused message allocates nothing — the head goes into the buffer the
// message kept — and a parse of a byte slice a fresh message and a
// right-sized reader.
func TestParseAllocations(t *testing.T) {
	keepHeads(t)
	reqRaw := []byte("GET /static/512.html HTTP/1.1\r\nHost: www.site1.example\r\nConnection: keep-alive\r\nX-Gage-Subscriber: site1\r\nX-Gage-Trace: 000100000000001f\r\n\r\n")
	respRaw := []byte("HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Type: text/html\r\nX-Gage-Trace: 000100000000001f\r\nX-Gage-Usage: 1070500,250000,912\r\nContent-Length: 512\r\n\r\n" + strings.Repeat("a", 512))
	rd := bytes.NewReader(nil)
	br := bufio.NewReaderSize(rd, 4096)
	var req Request
	if n := testing.AllocsPerRun(200, func() {
		rd.Reset(reqRaw)
		br.Reset(rd)
		if err := req.Read(br); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("reused Request.Read allocates %.1f times, want 0", n)
	}
	var resp Response
	if n := testing.AllocsPerRun(200, func() {
		rd.Reset(respRaw)
		br.Reset(rd)
		if n, err := resp.ReadHead(br); err != nil || n != 512 {
			t.Fatal(n, err)
		}
	}); n > 0 {
		t.Errorf("reused Response.ReadHead allocates %.1f times, want 0", n)
	}
	// ParseRequest pays for a fresh message — the Request, its head buffer, and
	// the header map, which the runtime builds in two pieces once it holds a key —
	// and for a reader over the slice: the bytes.Reader, the bufio.Reader and
	// its buffer, sized to the packet.
	urlPacket := []byte("GET /index.html HTTP/1.0\r\nHost: www.site1.example\r\n\r\n")
	if n := testing.AllocsPerRun(200, func() {
		if _, err := ParseRequest(urlPacket); err != nil {
			t.Fatal(err)
		}
	}); n > 7 {
		t.Errorf("ParseRequest of a URL packet allocates %.1f times, want at most 7", n)
	}
}
