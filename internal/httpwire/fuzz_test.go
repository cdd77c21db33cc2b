package httpwire

import (
	"bytes"
	"strings"
	"testing"
)

// requestSeeds is FuzzReadRequest's corpus, which the differential table test
// walks too.
func requestSeeds() [][]byte {
	return [][]byte{
		[]byte("GET / HTTP/1.0\r\n\r\n"),
		[]byte("GET /index.html HTTP/1.1\r\nHost: www.site1.example\r\n\r\n"),
		[]byte("GET http://site.example/a/b HTTP/1.1\r\n\r\n"),
		[]byte("POST /submit HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd"),
		// Malformed request lines.
		[]byte("garbage\r\n\r\n"),
		[]byte("GET\r\n\r\n"),
		[]byte("GET  HTTP/1.1\r\n\r\n"),
		[]byte("GET / NOTHTTP\r\n\r\n"),
		[]byte(" / HTTP/1.1\r\n\r\n"),
		// Split / odd Host headers.
		[]byte("GET / HTTP/1.1\r\nHost\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nHost:\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nhOsT:   spaced.example   \r\n\r\n"),
		[]byte("GET http://url.example/ HTTP/1.1\r\nHost: header.example\r\n\r\n"),
		// Content-Length abuse: oversized, negative, non-numeric, short body.
		[]byte("GET / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nContent-Length: 17000000\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nContent-Length: 0x10\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
		// Bare LF line endings and stray CRs.
		[]byte("GET / HTTP/1.1\nHost: lf.example\n\n"),
		[]byte("GET /a\rb HTTP/1.1\r\n\r\n"),
		[]byte("\r\n\r\n"),
		{},
		// Past the corpus the line-by-line parser shipped with: line endings
		// the scanner must count the same way, and a second message behind
		// the first.
		[]byte("GET / HTTP/1.1\r\r\nHost: cr.example\r\n\r\r\n"),
		[]byte("GET / HTTP/1.1\r\nHost: a\r\n\r\nGET /next HTTP/1.1\r\n\r\n"),
		[]byte("POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /next HTTP/1.1\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nX-Long: " + strings.Repeat("v", 9000) + "\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"),
		[]byte("GET / HTTP/1.1\n\r"),
	}
}

// FuzzReadRequest hunts for parser panics, for any difference from the
// reference parser — fresh, and into a message still holding a seed picked by
// the input's length — and for round-trip breakage: any input must either fail
// cleanly or parse into a request that survives Write→ReadRequest with its
// routing-relevant fields (method, target, proto, host, path, body) intact —
// the dispatcher classifies and relays off these, so a lossy round trip
// would silently misroute.
func FuzzReadRequest(f *testing.F) {
	for _, s := range requestSeeds() {
		f.Add(s)
	}
	seeds := requestSeeds()
	f.Fuzz(func(t *testing.T, data []byte) {
		diffRequest(t, seeds[len(data)%len(seeds)], data)
		req, err := ParseRequest(data)
		if err != nil {
			return // rejected cleanly
		}
		path := req.Path()
		var buf bytes.Buffer
		if err := req.Write(&buf); err != nil {
			t.Fatalf("Write of parsed request failed: %v", err)
		}
		got, err := ParseRequest(buf.Bytes())
		if err != nil {
			t.Fatalf("re-parse of written request failed: %v\nwire: %q", err, buf.Bytes())
		}
		if got.Method != req.Method || got.Target != req.Target || got.Proto != req.Proto {
			t.Fatalf("request line changed: %q %q %q -> %q %q %q",
				req.Method, req.Target, req.Proto, got.Method, got.Target, got.Proto)
		}
		if got.Host != req.Host {
			t.Fatalf("host changed: %q -> %q", req.Host, got.Host)
		}
		if got.Path() != path {
			t.Fatalf("path changed: %q -> %q", path, got.Path())
		}
		if !bytes.Equal(got.Body, req.Body) {
			t.Fatalf("body changed: %q -> %q", req.Body, got.Body)
		}
	})
}

// responseSeeds is FuzzReadResponse's corpus.
func responseSeeds() [][]byte {
	return [][]byte{
		[]byte("HTTP/1.0 200 OK\r\n\r\n"),
		[]byte("HTTP/1.0 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello"),
		[]byte("HTTP/1.1 404 Not Found\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\nHTTP/1.1 200 OK\r\n\r\n"),
		[]byte("HTTP/1.0 200\r\n\r\n"),
		[]byte("HTTP/1.0 200 \r\n\r\n"),
		[]byte("HTTP/1.0 \r\n\r\n"),
		[]byte("HTTP/1.0 +200 Signed\r\n\r\n"),
		[]byte("HTTP/1.0 -12 Negative\r\n\r\n"),
		[]byte("HTTP/1.0 99999999999999999999 Big\r\n\r\n"),
		[]byte("HTTP/1.0 200 OK two  spaces\r\n\r\n"),
		[]byte("BANANA\r\n\r\n"),
		[]byte("BANANA 200 OK\r\n\r\n"),
		[]byte("HTTP/1.0 abc OK\r\n\r\n"),
		[]byte("HTTP/1.0 200 OK\r\nbroken\r\n\r\n"),
		[]byte("HTTP/1.0 200 OK\r\nContent-Length: x\r\n\r\n"),
		[]byte("HTTP/1.0 200 OK\r\nContent-Length: -1\r\n\r\n"),
		[]byte("HTTP/1.0 200 OK\r\nContent-Length: 17000000\r\n\r\n"),
		[]byte("HTTP/1.0 200 OK\r\nContent-Length: 10\r\n\r\nshort"),
		[]byte("HTTP/1.0 200 OK\r\ncontent-length: 2\r\nCONTENT-LENGTH: 3\r\n\r\nabcdef"),
		[]byte("HTTP/1.0 200 OK\nX-Lf: 1\n\nrest"),
		[]byte("HTTP/1.0 200 OK\r\nX-Truncated: 1"),
		[]byte("HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"),
		[]byte("HTTP/1.0 200 OK\r\nX-Long: " + strings.Repeat("v", 9000) + "\r\nContent-Length: 1\r\n\r\nx"),
		[]byte("HTTP/1.0"),
		[]byte("\n"),
		{},
	}
}

// FuzzReadResponse holds the response side of the scanner to the reference
// parser on arbitrary bytes: the backend is inside the trust boundary, but a
// misparse there mis-frames a pooled connection for every request after it.
func FuzzReadResponse(f *testing.F) {
	for _, s := range responseSeeds() {
		f.Add(s)
	}
	seeds := responseSeeds()
	f.Fuzz(func(t *testing.T, data []byte) { diffResponse(t, seeds[len(data)%len(seeds)], data) })
}
