// Package httpwire implements the minimal HTTP/1.x wire subset Gage needs:
// parsing a request head (request line + headers + optional Content-Length
// body) to extract the Host and path for classification, and writing
// well-formed requests and responses. It is intentionally small — the
// dispatcher only routes bytes; origin-server semantics live in the
// backends.
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
)

// Parse errors.
var (
	// ErrMalformedRequest reports an unparseable request head.
	ErrMalformedRequest = errors.New("httpwire: malformed request")
	// ErrMalformedResponse reports an unparseable response head.
	ErrMalformedResponse = errors.New("httpwire: malformed response")
	// ErrBodyTooLarge reports a Content-Length beyond the configured cap.
	ErrBodyTooLarge = errors.New("httpwire: body too large")
)

// MaxBodyBytes caps bodies read into memory.
const MaxBodyBytes = 16 << 20

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

// ReadRequest parses one request (head and Content-Length body) from r.
func ReadRequest(r *bufio.Reader) (*Request, error) {
	line, err := readLine(r)
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
	if err := readHeaders(r, req.Header); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformedRequest, err)
	}
	req.Host = hostOf(req.Target, req.Header)
	body, err := readBody(r, req.Header)
	if err != nil {
		return nil, err
	}
	req.Body = body
	return req, nil
}

// ParseRequest parses a request from a byte slice (the splicer's URL-packet
// payload). A request head that is complete but has a short body is still
// an error: the splicer only dispatches whole requests.
func ParseRequest(b []byte) (*Request, error) {
	return ReadRequest(bufio.NewReader(bytes.NewReader(b)))
}

// Write serializes the request, normalizing Host into a header.
func (r *Request) Write(w io.Writer) error {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.0"
	}
	n := len(r.Method) + len(r.Target) + len(proto) + len("  \r\n")
	if r.Host != "" {
		n += len("Host: \r\n") + len(r.Host)
	}
	buf := make([]byte, 0, n+headersLen(r.Header)+len(r.Body))
	buf = append(buf, r.Method...)
	buf = append(buf, ' ')
	buf = append(buf, r.Target...)
	buf = append(buf, ' ')
	buf = append(buf, proto...)
	buf = append(buf, "\r\n"...)
	if r.Host != "" {
		buf = appendHeader(buf, "Host", r.Host)
	}
	buf = appendHeaders(buf, r.Header, len(r.Body), "Host")
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
}

// ReadResponse parses one response from r.
func ReadResponse(r *bufio.Reader) (*Response, error) {
	line, err := readLine(r)
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
	if err := readHeaders(r, resp.Header); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformedResponse, err)
	}
	body, err := readBody(r, resp.Header)
	if err != nil {
		return nil, err
	}
	resp.Body = body
	return resp, nil
}

// Write serializes the response with a correct Content-Length.
func (r *Response) Write(w io.Writer) error {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.0"
	}
	status := r.Status
	if status == "" {
		status = StatusText(r.StatusCode)
	}
	n := len(proto) + maxIntLen + len(status) + len("  \r\n")
	buf := make([]byte, 0, n+headersLen(r.Header)+len(r.Body))
	buf = append(buf, proto...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(r.StatusCode), 10)
	buf = append(buf, ' ')
	buf = append(buf, status...)
	buf = append(buf, "\r\n"...)
	buf = appendHeaders(buf, r.Header, len(r.Body), "")
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

func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func readHeaders(r *bufio.Reader, into map[string]string) error {
	for {
		line, err := readLine(r)
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

func readBody(r *bufio.Reader, header map[string]string) ([]byte, error) {
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

// maxIntLen is the longest decimal rendering of an int64, sign included.
const maxIntLen = 20

// headersLen bounds what appendHeaders appends for header: every line, a
// Content-Length line and the blank line that ends the head.
func headersLen(header map[string]string) int {
	n := len("Content-Length: \r\n") + maxIntLen + len("\r\n")
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
// Content-Length left out), the Content-Length line when there is a body or
// the header names one, and the blank line.
func appendHeaders(buf []byte, header map[string]string, bodyLen int, skip string) []byte {
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
		buf = strconv.AppendInt(buf, int64(bodyLen), 10)
		buf = append(buf, "\r\n"...)
	}
	return append(buf, "\r\n"...)
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
