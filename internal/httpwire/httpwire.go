// Package httpwire implements the minimal HTTP/1.x wire subset Gage needs:
// parsing a message head (start line + headers, with a Content-Length body)
// to extract the Host and path for classification, and writing well-formed
// requests and responses. It is intentionally small — the dispatcher only
// routes bytes; origin-server semantics live in the backends.
//
// A head is scanned in place: its end is located in the bufio.Reader's own
// buffer, the head is copied once into a buffer the message owns, and the
// start-line fields and every header are cut from one string view of that
// buffer. A message that is read again — (*Request).Read,
// (*Response).ReadHead — overwrites its buffer and refills its Header map, so
// a relay that owns one message per connection pays nothing per parse. The
// lifetime rule that buys this: a message's string fields, its Header
// entries and the bytes of those strings are valid until the next Read,
// ReadHead or Reset of that message. Whatever outlives the request is
// strings.Clone'd where it is kept. ReadRequest, ReadResponse and
// ParseRequest run the same scanner into a fresh message, which nothing ever
// reads into again: what is cut from one of those may be kept as it is.
//
// Only Content-Length framing is understood. A message that declares a
// Transfer-Encoding is refused as malformed rather than parsed as body-less
// with its chunks left in the reader for the next message to trip over.
package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/textproto"
	"strconv"
	"strings"
	"sync/atomic"
	"unsafe"
)

// Parse errors.
var (
	// ErrMalformedRequest reports an unparseable request head.
	ErrMalformedRequest = errors.New("httpwire: malformed request")
	// ErrMalformedResponse reports an unparseable response head.
	ErrMalformedResponse = errors.New("httpwire: malformed response")
	// ErrBodyTooLarge reports a Content-Length beyond MaxBodyBytes.
	ErrBodyTooLarge = errors.New("httpwire: body too large")
	// ErrHeadTooLarge reports a head that does not end within MaxHeadBytes.
	ErrHeadTooLarge = errors.New("httpwire: head too large")
)

// MaxBodyBytes caps bodies read into memory.
const MaxBodyBytes = 16 << 20

// MaxHeadBytes caps a message head, blank line included: a peer that never
// ends its head costs the reader at most this much memory.
const MaxHeadBytes = 64 << 10

// maxKeptHead is the largest head buffer a message keeps across Reset: one
// head near MaxHeadBytes must not pin its size to a pooled message.
const maxKeptHead = 16 << 10

// ScribbleStaleHeads is a test hook, switched on by a TestMain and by nothing
// that ships: a message that is reset fills its old head with 0xFF and takes
// a fresh buffer, so a string kept past its request reads as garbage instead
// of as the look-alike request that usually follows on the same connection.
var ScribbleStaleHeads atomic.Bool

// recycle is what Reset does to a head buffer: emptied and kept, or let go if
// one oversized head grew it past maxKeptHead.
func recycle(head []byte) []byte {
	if ScribbleStaleHeads.Load() && cap(head) > 0 {
		head = head[:cap(head)]
		for i := range head {
			head[i] = 0xFF
		}
		return nil
	}
	if cap(head) > maxKeptHead {
		return nil
	}
	return head[:0]
}

// view returns b as a string that shares its bytes: valid for as long as
// nothing writes to b.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Request is a parsed HTTP request.
type Request struct {
	Method string
	// Target is the request-target as sent (path or absolute URL).
	Target string
	Proto  string
	// Host is resolved from an absolute request-target or the Host header.
	Host   string
	Header map[string]string
	Body   []byte
	// head holds the bytes the strings of a parsed request are views of.
	head []byte
}

// Reset empties r, keeping its Header map and head buffer for the next Read.
// Every string cut from the request it held dies here.
func (r *Request) Reset() {
	// The keys are views of head: out of the map before head changes.
	clear(r.Header)
	*r = Request{Header: r.Header, head: recycle(r.head)}
}

// Path returns the path component of the request target.
func (r *Request) Path() string {
	t := r.Target
	if strings.HasPrefix(t, "http://") || strings.HasPrefix(t, "https://") {
		rest := t[strings.Index(t, "//")+2:]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			return rest[i:]
		}
		return "/"
	}
	return t
}

// KeepAlive reports whether the sender asked for a persistent connection
// under the HTTP/1.x rules: 1.1 defaults to keep-alive unless
// "Connection: close"; 1.0 requires an explicit "Connection: keep-alive".
func (r *Request) KeepAlive() bool {
	c := r.Header["Connection"]
	if r.Proto == "HTTP/1.1" {
		return !strings.EqualFold(c, "close")
	}
	return strings.EqualFold(c, "keep-alive")
}

// ReadRequest parses one request (head and Content-Length body) from br into
// a fresh Request.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	req := new(Request)
	if err := req.Read(br); err != nil {
		return nil, err
	}
	return req, nil
}

// Read parses one request (head and Content-Length body) from br into r,
// replacing what r held and reusing its Header map and head buffer.
func (r *Request) Read(br *bufio.Reader) error {
	r.Reset()
	var err error
	if r.head, err = readHead(br, r.head, ErrMalformedRequest); err != nil {
		return err
	}
	line, lines := cutLine(view(r.head))
	method, rest, _ := strings.Cut(line, " ")
	target, proto, ok := strings.Cut(rest, " ")
	if !ok || method == "" || target == "" {
		return fmt.Errorf("%w: request line %q", ErrMalformedRequest, line)
	}
	if !strings.HasPrefix(proto, "HTTP/") {
		return fmt.Errorf("%w: protocol %q", ErrMalformedRequest, proto)
	}
	r.Method, r.Target, r.Proto = method, target, proto
	var n int64
	if r.Header, n, err = parseHeaders(lines, r.Header, ErrMalformedRequest); err != nil {
		return err
	}
	r.Host = hostOf(target, r.Header)
	r.Body, err = readBody(br, n)
	return err
}

// ParseRequest parses a request from a byte slice (the splicer's URL-packet
// payload). A request head that is complete but has a short body is still
// an error: the splicer only dispatches whole requests.
func ParseRequest(b []byte) (*Request, error) {
	// A URL packet is a few hundred bytes: the reader is sized to it.
	return ReadRequest(bufio.NewReaderSize(bytes.NewReader(b), min(len(b), 4096)))
}

// AppendHead appends the request line and the header lines — Host first, the
// rest in sorted key order, Content-Length for r.Body last — without the
// blank line that ends the head, so a relay can add header lines of its own
// before it.
func (r *Request) AppendHead(buf []byte) []byte {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.0"
	}
	buf = append(buf, r.Method...)
	buf = append(buf, ' ')
	buf = append(buf, r.Target...)
	buf = append(buf, ' ')
	buf = append(buf, proto...)
	buf = append(buf, "\r\n"...)
	if r.Host != "" {
		buf = appendHeader(buf, "Host", r.Host)
	}
	return appendHeaders(buf, r.Header, int64(len(r.Body)), "Host")
}

// Write serializes the request, normalizing Host into a header.
func (r *Request) Write(w io.Writer) error {
	n := len(r.Method) + len(r.Target) + len(r.Proto) + len(r.Host)
	buf := make([]byte, 0, n+headersLen(r.Header)+len(r.Body))
	buf = r.AppendHead(buf)
	buf = append(buf, "\r\n"...)
	buf = append(buf, r.Body...)
	_, err := w.Write(buf)
	return err
}

// Response is a parsed HTTP response.
type Response struct {
	Proto      string
	StatusCode int
	Status     string
	Header     map[string]string
	Body       []byte
	// head holds the bytes the strings of a parsed response are views of.
	head []byte
}

// Reset empties r, keeping its Header map and head buffer for the next
// ReadHead. Every string cut from the response it held dies here.
func (r *Response) Reset() {
	clear(r.Header)
	*r = Response{Header: r.Header, head: recycle(r.head)}
}

// ReadResponse parses one response (head and Content-Length body) from br
// into a fresh Response.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	resp := new(Response)
	n, err := resp.ReadHead(br)
	if err != nil {
		return nil, err
	}
	if resp.Body, err = readBody(br, n); err != nil {
		return nil, err
	}
	return resp, nil
}

// ReadHead parses one response head from br into r, replacing what r held
// (Body included) and reusing its Header map and head buffer. It returns the
// length of the body that follows in br, which it leaves unread: a relay
// forwards those bytes from the reader instead of copying them into the
// message.
func (r *Response) ReadHead(br *bufio.Reader) (int64, error) {
	r.Reset()
	var err error
	if r.head, err = readHead(br, r.head, ErrMalformedResponse); err != nil {
		return 0, err
	}
	line, lines := cutLine(view(r.head))
	proto, rest, ok := strings.Cut(line, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/") {
		return 0, fmt.Errorf("%w: status line %q", ErrMalformedResponse, line)
	}
	code, status, _ := strings.Cut(rest, " ")
	r.StatusCode, err = strconv.Atoi(code)
	if err != nil {
		return 0, fmt.Errorf("%w: status code %q", ErrMalformedResponse, code)
	}
	r.Proto, r.Status = proto, status
	var n int64
	r.Header, n, err = parseHeaders(lines, r.Header, ErrMalformedResponse)
	return n, err
}

// AppendHead appends the status line and the header lines — sorted key
// order, then Content-Length for a body of bodyLen bytes — without the blank
// line that ends the head.
func (r *Response) AppendHead(buf []byte, bodyLen int64) []byte {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.0"
	}
	status := r.Status
	if status == "" {
		status = StatusText(r.StatusCode)
	}
	buf = append(buf, proto...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(r.StatusCode), 10)
	buf = append(buf, ' ')
	buf = append(buf, status...)
	buf = append(buf, "\r\n"...)
	return appendHeaders(buf, r.Header, bodyLen, "")
}

// Write serializes the response with a correct Content-Length.
func (r *Response) Write(w io.Writer) error {
	n := len(r.Proto) + len(r.Status)
	buf := make([]byte, 0, n+headersLen(r.Header)+len(r.Body))
	buf = r.AppendHead(buf, int64(len(r.Body)))
	buf = append(buf, "\r\n"...)
	buf = append(buf, r.Body...)
	_, err := w.Write(buf)
	return err
}

// StatusText returns standard reason phrases for the codes Gage emits.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	default:
		return "Status " + strconv.Itoa(code)
	}
}

// readHead consumes one message head from br — start line, header lines and
// the blank line — and returns it appended to head, which must be empty: the
// one copy a parse makes, and no allocation once head has the room. The head
// is searched where it already lies, in br's buffer; only one that outgrows
// the buffer is taken out piecewise (head then holds the part already out of
// br), up to MaxHeadBytes. Nothing past the head is consumed. A line ends at
// LF, any CRs before the LF belong to the line ending, and the head ends with
// the first line that holds nothing else. A read error inside the start line
// is returned as it is — io.EOF there is a peer hanging up between messages —
// and one after it as a malformed head.
func readHead(br *bufio.Reader, head []byte, malformed error) ([]byte, error) {
	var (
		seen  int  // bytes of br's buffered window already searched
		lines int  // complete lines found
		text  bool // the line in progress holds a byte other than CR
	)
	for {
		win, _ := br.Peek(br.Buffered())
		for seen < len(win) {
			nl := bytes.IndexByte(win[seen:], '\n')
			if nl < 0 {
				text = text || !onlyCR(win[seen:])
				seen = len(win)
				break
			}
			blank := !text && onlyCR(win[seen:seen+nl])
			seen += nl + 1
			lines++
			text = false
			if !blank {
				continue
			}
			if len(head)+seen > MaxHeadBytes {
				return head, ErrHeadTooLarge
			}
			head = append(head, win[:seen]...)
			_, _ = br.Discard(seen) // buffered bytes: cannot fail
			return head, nil
		}
		if len(head)+seen >= MaxHeadBytes {
			return head, ErrHeadTooLarge
		}
		if seen == br.Size() {
			head = append(head, win...)
			_, _ = br.Discard(seen)
			seen = 0
		}
		if _, err := br.Peek(seen + 1); err != nil {
			if lines > 0 {
				err = fmt.Errorf("%w: %v", malformed, err)
			}
			return head, err
		}
	}
}

func onlyCR(b []byte) bool {
	for _, c := range b {
		if c != '\r' {
			return false
		}
	}
	return true
}

// cutLine splits s after its first line, dropping the line ending.
func cutLine(s string) (line, rest string) {
	line, rest, _ = strings.Cut(s, "\n")
	return strings.TrimRight(line, "\r"), rest
}

// parseHeaders fills h (empty; allocated when nil) from the header lines of a
// head and returns it with the body length they declare.
func parseHeaders(lines string, h map[string]string, malformed error) (map[string]string, int64, error) {
	if h == nil {
		h = make(map[string]string)
	}
	for lines != "" {
		var line string
		line, lines = cutLine(lines)
		if line == "" {
			break
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			return h, 0, fmt.Errorf("%w: header line %q", malformed, line)
		}
		h[textproto.CanonicalMIMEHeaderKey(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	if _, ok := h["Transfer-Encoding"]; ok {
		return h, 0, fmt.Errorf("%w: transfer-encoding is not supported", malformed)
	}
	cl, ok := h["Content-Length"]
	if !ok {
		return h, 0, nil
	}
	n, err := strconv.ParseInt(cl, 10, 64)
	if err != nil || n < 0 {
		return h, 0, fmt.Errorf("%w: content-length %q", malformed, cl)
	}
	return h, n, nil
}

// readBody reads a body of n bytes into memory.
func readBody(br *bufio.Reader, n int64) ([]byte, error) {
	if n > MaxBodyBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrBodyTooLarge, n)
	}
	if n == 0 {
		return nil, nil
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, fmt.Errorf("httpwire: short body: %w", err)
	}
	return body, nil
}

// headersLen bounds what a head needs beyond its start-line strings: every
// header line, plus room for the start line's separators, a defaulted
// protocol, a status code and defaulted reason phrase ("Status " and an
// int64), the Host and Content-Length lines' fixed parts and the blank line.
func headersLen(header map[string]string) int {
	n := 128
	for k, v := range header {
		n += len(k) + len(": \r\n") + len(v)
	}
	return n
}

func appendHeader(buf []byte, k, v string) []byte {
	buf = append(buf, k...)
	buf = append(buf, ": "...)
	buf = append(buf, v...)
	return append(buf, "\r\n"...)
}

// appendHeaders appends the header lines in sorted key order (skip and
// Content-Length left out), then the Content-Length line when there is a body
// or the header names one.
func appendHeaders(buf []byte, header map[string]string, bodyLen int64, skip string) []byte {
	// The usual handful of keys sorts in place on the stack.
	var stack [16]string
	keys := stack[:0]
	for k := range header {
		if k == skip || k == "Content-Length" {
			continue
		}
		// Insertion sort: deterministic header order.
		i := len(keys)
		keys = append(keys, k)
		for ; i > 0 && keys[i-1] > k; i-- {
			keys[i] = keys[i-1]
		}
		keys[i] = k
	}
	for _, k := range keys {
		buf = appendHeader(buf, k, header[k])
	}
	if bodyLen > 0 || header["Content-Length"] != "" {
		buf = append(buf, "Content-Length: "...)
		buf = strconv.AppendInt(buf, bodyLen, 10)
		buf = append(buf, "\r\n"...)
	}
	return buf
}

func hostOf(target string, header map[string]string) string {
	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		rest := target[strings.Index(target, "//")+2:]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	return header["Host"]
}
