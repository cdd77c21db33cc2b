package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/textproto"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// The line-by-line parser the head scanner replaced, kept as the reference
// the scanner is pinned against: same fields or the same class of error on
// every input, and the same bytes left in the reader.

func refReadRequest(r *bufio.Reader) (*Request, error) {
	line, err := refReadLine(r)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformedRequest, line)
	}
	req := &Request{
		Method: parts[0],
		Target: parts[1],
		Proto:  parts[2],
		Header: make(map[string]string),
	}
	if !strings.HasPrefix(req.Proto, "HTTP/") {
		return nil, fmt.Errorf("%w: protocol %q", ErrMalformedRequest, req.Proto)
	}
	if err := refReadHeaders(r, req.Header); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformedRequest, err)
	}
	req.Host = hostOf(req.Target, req.Header)
	body, err := refReadBody(r, req.Header)
	if err != nil {
		return nil, err
	}
	req.Body = body
	return req, nil
}

func refReadResponse(r *bufio.Reader) (*Response, error) {
	line, err := refReadLine(r)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformedResponse, line)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("%w: status code %q", ErrMalformedResponse, parts[1])
	}
	resp := &Response{
		Proto:      parts[0],
		StatusCode: code,
		Header:     make(map[string]string),
	}
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	if err := refReadHeaders(r, resp.Header); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformedResponse, err)
	}
	body, err := refReadBody(r, resp.Header)
	if err != nil {
		return nil, err
	}
	resp.Body = body
	return resp, nil
}

func refReadLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func refReadHeaders(r *bufio.Reader, into map[string]string) error {
	for {
		line, err := refReadLine(r)
		if err != nil {
			return err
		}
		if line == "" {
			return nil
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			return fmt.Errorf("header line %q", line)
		}
		into[textproto.CanonicalMIMEHeaderKey(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
}

func refReadBody(r *bufio.Reader, header map[string]string) ([]byte, error) {
	cl, ok := header["Content-Length"]
	if !ok {
		return nil, nil
	}
	n, err := strconv.ParseInt(cl, 10, 64)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: content-length %q", ErrMalformedRequest, cl)
	}
	if n > MaxBodyBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrBodyTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("httpwire: short body: %w", err)
	}
	return body, nil
}

// errClass names what a caller can tell about a parse error.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case err == io.EOF:
		return "bare EOF"
	case errors.Is(err, ErrMalformedRequest):
		return "malformed request"
	case errors.Is(err, ErrMalformedResponse):
		return "malformed response"
	case errors.Is(err, ErrBodyTooLarge):
		return "body too large"
	case errors.Is(err, ErrHeadTooLarge):
		return "head too large"
	default:
		return "short body"
	}
}

// deliberate reports the inputs on which the scanner parts from the
// reference on purpose, each pinned by a test of its own: a declared
// Transfer-Encoding is refused, and a head past MaxHeadBytes is refused.
func deliberate(data []byte, err error) bool {
	return errors.Is(err, ErrHeadTooLarge) && len(data) >= MaxHeadBytes ||
		bytes.Contains(bytes.ToLower(data), []byte("transfer-encoding"))
}

// readers are the ways the differential tests feed a parser its input: the
// whole message buffered at once, a reader buffer smaller than most heads
// (the accumulate path), and one byte per read (a head split across every
// possible TCP segment boundary).
var readers = []struct {
	name string
	open func(data []byte) *bufio.Reader
}{
	{"whole", func(data []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(data)) }},
	{"16-byte buffer", func(data []byte) *bufio.Reader { return bufio.NewReaderSize(bytes.NewReader(data), 16) }},
	{"byte at a time", func(data []byte) *bufio.Reader { return bufio.NewReader(iotest.OneByteReader(bytes.NewReader(data))) }},
}

func rest(t *testing.T, br *bufio.Reader) []byte {
	t.Helper()
	b, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("reading past the message: %v", err)
	}
	return b
}

// eachReuse runs f the two ways a message can be read into again: with its
// stale head scribbled and replaced, as TestMain has it (a Header entry or a
// field left over from the old request reads as 0xFF), and with the buffer
// really reused (a view taken before append moved the buffer, or a head that
// outgrew the reader and lost its first part, reads as the wrong bytes).
func eachReuse(f func(how string)) {
	defer ScribbleStaleHeads.Store(true)
	for _, scribble := range []bool{true, false} {
		ScribbleStaleHeads.Store(scribble)
		f(map[bool]string{true: "scribbled", false: "kept"}[scribble] + " buffer")
	}
}

// diffRequest holds every request entry point — a fresh message, a reused
// one still holding another request, one that has just parsed prev, and the
// byte-slice parse — against the reference on one input.
func diffRequest(t *testing.T, prev, data []byte) {
	t.Helper()
	rbr := bufio.NewReader(bytes.NewReader(data))
	want, wantErr := refReadRequest(rbr)
	var wantRest []byte
	if wantErr == nil {
		wantRest = rest(t, rbr)
	}
	check := func(how string, got *Request, err error) {
		t.Helper()
		if deliberate(data, err) {
			return
		}
		if errClass(err) != errClass(wantErr) {
			t.Fatalf("%s: error %v, reference %v\ninput %q", how, err, wantErr, data)
		}
		if err != nil {
			return
		}
		if got.Method != want.Method || got.Target != want.Target || got.Proto != want.Proto || got.Host != want.Host {
			t.Fatalf("%s: %q %q %q host %q, reference %q %q %q host %q\ninput %q", how,
				got.Method, got.Target, got.Proto, got.Host, want.Method, want.Target, want.Proto, want.Host, data)
		}
		if !reflect.DeepEqual(got.Header, want.Header) {
			t.Fatalf("%s: header %v, reference %v\ninput %q", how, got.Header, want.Header, data)
		}
		if !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("%s: body %q, reference %q\ninput %q", how, got.Body, want.Body, data)
		}
	}
	for _, rd := range readers {
		br := rd.open(data)
		got, err := ReadRequest(br)
		check("ReadRequest, "+rd.name, got, err)
		if err == nil && wantErr == nil {
			if g := rest(t, br); !bytes.Equal(g, wantRest) {
				t.Fatalf("ReadRequest, %s: left %q in the reader, reference %q\ninput %q", rd.name, g, wantRest, data)
			}
		}
		reused := &Request{Method: "PUT", Target: "/old", Proto: "HTTP/0.9", Host: "old.example",
			Header: map[string]string{"X-Old": "1", "Content-Length": "3"}, Body: []byte("old")}
		err = reused.Read(rd.open(data))
		check("reused Read, "+rd.name, reused, err)
		eachReuse(func(how string) {
			var dirty Request
			_ = dirty.Read(rd.open(prev))
			err := dirty.Read(rd.open(data))
			check("Read over a parsed request, "+how+", "+rd.name, &dirty, err)
		})
	}
	got, err := ParseRequest(data)
	check("ParseRequest", got, err)
}

// diffResponse is diffRequest for ReadResponse and a reused ReadHead. The
// reference called a bad response Content-Length a malformed request; that
// one class is corrected before comparing.
func diffResponse(t *testing.T, prev, data []byte) {
	t.Helper()
	rbr := bufio.NewReader(bytes.NewReader(data))
	want, wantErr := refReadResponse(rbr)
	wantClass := errClass(wantErr)
	if wantClass == "malformed request" {
		wantClass = "malformed response"
	}
	var wantRest []byte
	if wantErr == nil {
		wantRest = rest(t, rbr)
	}
	for _, rd := range readers {
		br := rd.open(data)
		got, err := ReadResponse(br)
		if deliberate(data, err) {
			continue
		}
		if errClass(err) != wantClass {
			t.Fatalf("ReadResponse, %s: error %v, reference %v\ninput %q", rd.name, err, wantErr, data)
		}
		if err != nil {
			continue
		}
		if got.Proto != want.Proto || got.StatusCode != want.StatusCode || got.Status != want.Status {
			t.Fatalf("ReadResponse, %s: %q %d %q, reference %q %d %q\ninput %q", rd.name,
				got.Proto, got.StatusCode, got.Status, want.Proto, want.StatusCode, want.Status, data)
		}
		if !reflect.DeepEqual(got.Header, want.Header) || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("ReadResponse, %s: header %v body %q, reference %v %q\ninput %q", rd.name,
				got.Header, got.Body, want.Header, want.Body, data)
		}
		if g := rest(t, br); !bytes.Equal(g, wantRest) {
			t.Fatalf("ReadResponse, %s: left %q in the reader, reference %q\ninput %q", rd.name, g, wantRest, data)
		}
		// A reused head parse agrees with the fresh one and stops where the
		// body starts.
		checkHead := func(how string, reused *Response) {
			t.Helper()
			br := rd.open(data)
			n, err := reused.ReadHead(br)
			if err != nil || n != int64(len(want.Body)) || reused.Body != nil {
				t.Fatalf("%s, %s: n %d body %q err %v, want n %d and no body\ninput %q", how, rd.name, n, reused.Body, err, len(want.Body), data)
			}
			if reused.Proto != want.Proto || reused.StatusCode != want.StatusCode || reused.Status != want.Status ||
				!reflect.DeepEqual(reused.Header, want.Header) {
				t.Fatalf("%s, %s: %q %d %q header %v, reference %q %d %q header %v\ninput %q", how, rd.name,
					reused.Proto, reused.StatusCode, reused.Status, reused.Header,
					want.Proto, want.StatusCode, want.Status, want.Header, data)
			}
			if g := rest(t, br); !bytes.Equal(g[:n], want.Body) {
				t.Fatalf("%s, %s: reader continues %q, want the body %q\ninput %q", how, rd.name, g, want.Body, data)
			}
		}
		checkHead("reused ReadHead", &Response{Proto: "HTTP/0.9", StatusCode: 1, Status: "old",
			Header: map[string]string{"X-Old": "1"}, Body: []byte("old")})
		eachReuse(func(how string) {
			var dirty Response
			_, _ = dirty.ReadHead(rd.open(prev))
			checkHead("ReadHead over a parsed response, "+how, &dirty)
		})
	}
}
