package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// loopMode is how the generator issues requests.
type loopMode int

const (
	// closedConn: each client sends its next request when the previous one
	// completes, one TCP connection per request (HTTP/1.0).
	closedConn loopMode = iota
	// closedKeepAlive: the same loop over one persistent HTTP/1.1
	// connection per client.
	closedKeepAlive
	// openConn: requests are sent on a fixed schedule whatever the
	// completions do, one TCP connection per request.
	openConn
)

// stream is one request class: a virtual host and, in the open loop, its
// constant arrival rate.
type stream struct {
	host string
	// rate is arrivals per second (open loop only).
	rate float64
	// underTest marks the operations whose failures and latency the workload
	// reports; the rest is background pressure.
	underTest bool
}

// genConfig describes one generator run.
type genConfig struct {
	addr    string
	mode    loopMode
	clients int // closed loop: concurrent clients; open loop: in-flight cap
	streams []stream
	page    int // requested body size; every 200 must carry exactly this
	seed    int64
	// spans records the per-call phase timestamps (connected, written, first
	// byte) the traced run writes out.
	spans bool
}

// Generator-side statuses for exchanges that never produced an HTTP status.
const (
	statusTransport = -1 // dial, write or read failed
	statusBadBody   = -2 // a 200 whose body is not the requested page
	statusCapped    = -3 // open loop: arrival past the in-flight cap, not sent
)

// sample is one completed exchange. Times are nanoseconds since the
// generator's start.
type sample struct {
	due    int64 // when the request was due to be sent
	sent   int64 // when a client actually started sending it
	done   int64 // when the last response byte arrived
	status int16
	stream uint8
}

// phases are the bench-side span boundaries of one exchange, nanoseconds
// since the generator's start (traced runs only).
type phases struct {
	connected int64
	written   int64
	firstByte int64
}

// client is one generator goroutine with its private scratch and results, so
// the hot loop takes no lock.
type client struct {
	rng     *rand.Rand
	buf     []byte
	samples []sample
	phases  []phases
	conn    net.Conn // keep-alive mode: the persistent connection
	// warmOK counts the 200s received before the measurement window; warm-up
	// exchanges are not stored one by one.
	warmOK uint64
}

type job struct {
	stream int
	due    int64
}

// generator drives one workload against addr.
type generator struct {
	cfg   genConfig
	raddr *net.TCPAddr
	reqs  [][]byte // per stream: the request bytes
	body  []byte   // the page every 200 must carry

	t0          time.Time
	measureFrom int64 // samples due before this offset are counted, not kept
	stop        chan struct{}
	jobs        chan job
	clientWG    sync.WaitGroup
	pacerWG     sync.WaitGroup
	clients     []*client

	inflight     atomic.Int64
	inflightPeak atomic.Int64

	mu     sync.Mutex
	capped []sample // open loop: arrivals refused at the in-flight cap
}

// pageBody is the synthetic page internal/backend renders for a size.
func pageBody(size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = 'a' + byte(i%26)
	}
	return b
}

func requestBytes(mode loopMode, host string, page int) []byte {
	proto := "HTTP/1.0"
	if mode == closedKeepAlive {
		proto = "HTTP/1.1"
	}
	return []byte(fmt.Sprintf("GET /static/%d.html %s\r\nHost: %s\r\n\r\n", page, proto, host))
}

func newGenerator(cfg genConfig) (*generator, error) {
	raddr, err := net.ResolveTCPAddr("tcp", cfg.addr)
	if err != nil {
		return nil, fmt.Errorf("resolve %s: %w", cfg.addr, err)
	}
	if len(cfg.streams) == 0 || len(cfg.streams) > 255 || cfg.clients <= 0 {
		return nil, errors.New("generator needs 1..255 streams and at least one client")
	}
	g := &generator{
		cfg:   cfg,
		raddr: raddr,
		body:  pageBody(cfg.page),
		stop:  make(chan struct{}),
		jobs:  make(chan job),
	}
	for _, s := range cfg.streams {
		g.reqs = append(g.reqs, requestBytes(cfg.mode, s.host, cfg.page))
	}
	for i := 0; i < cfg.clients; i++ {
		g.clients = append(g.clients, &client{
			rng: rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(i))),
			buf: make([]byte, 4096+cfg.page),
			// Sized so a typical run never grows it inside the window.
			samples: make([]sample, 0, 2048),
		})
	}
	return g, nil
}

// start launches the clients (and, in the open loop, one pacer per stream).
// Exchanges due before warmup has elapsed are counted but not kept.
func (g *generator) start(warmup time.Duration) {
	g.t0 = time.Now()
	g.measureFrom = int64(warmup)
	for _, c := range g.clients {
		g.clientWG.Add(1)
		go g.runClient(c)
	}
	if g.cfg.mode != openConn {
		return
	}
	// The seed fixes each stream's start phase against the scheduling tick.
	phaseRNG := rand.New(rand.NewSource(g.cfg.seed))
	for i, s := range g.cfg.streams {
		gap := float64(time.Second) / s.rate
		phase := phaseRNG.Float64() * gap
		g.pacerWG.Add(1)
		go g.pace(i, gap, phase)
	}
}

// halt stops issuing requests and waits for every exchange in flight.
func (g *generator) halt() {
	close(g.stop)
	g.pacerWG.Wait()
	close(g.jobs)
	g.clientWG.Wait()
}

func (g *generator) since() int64 { return int64(time.Since(g.t0)) }

// pace emits one stream's constant-rate arrivals. A late pacer does not
// skip arrivals: it sends the backlog at once, and because latency is timed
// from the due time the stall shows in the numbers.
func (g *generator) pace(streamIdx int, gap, phase float64) {
	defer g.pacerWG.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for k := 0; ; k++ {
		due := int64(phase + float64(k)*gap)
		if wait := due - g.since(); wait > 0 {
			timer.Reset(time.Duration(wait))
			select {
			case <-g.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-g.stop:
				return
			default:
			}
		}
		select {
		case g.jobs <- job{stream: streamIdx, due: due}:
		default:
			// Every client is busy: the in-flight cap is reached. The
			// arrival is dropped and counted, keeping the loop open.
			now := g.since()
			if due >= g.measureFrom {
				g.mu.Lock()
				g.capped = append(g.capped, sample{due: due, sent: now, done: now,
					status: statusCapped, stream: uint8(streamIdx)})
				g.mu.Unlock()
			}
		}
	}
}

func (g *generator) runClient(c *client) {
	defer g.clientWG.Done()
	if g.cfg.mode == openConn {
		for j := range g.jobs {
			g.exchange(c, j.stream, j.due)
		}
		return
	}
	defer func() {
		if c.conn != nil {
			c.conn.Close()
		}
	}()
	for {
		select {
		case <-g.stop:
			return
		default:
		}
		// The seed fixes each client's host sequence.
		g.exchange(c, c.rng.Intn(len(g.cfg.streams)), g.since())
	}
}

// exchange performs one request/response and records it.
func (g *generator) exchange(c *client, streamIdx int, due int64) {
	n := g.inflight.Add(1)
	for {
		peak := g.inflightPeak.Load()
		if n <= peak || g.inflightPeak.CompareAndSwap(peak, n) {
			break
		}
	}
	s := sample{due: due, sent: g.since(), stream: uint8(streamIdx)}
	var ph phases
	s.status = g.roundTrip(c, streamIdx, &ph)
	s.done = g.since()
	g.inflight.Add(-1)
	if due < g.measureFrom {
		if s.status == 200 {
			c.warmOK++
		}
		return
	}
	c.samples = append(c.samples, s)
	if g.cfg.spans {
		c.phases = append(c.phases, ph)
	}
}

// exchangeTimeout bounds one whole exchange, so a wedged server fails the
// run instead of hanging it.
const exchangeTimeout = 10 * time.Second

func (g *generator) roundTrip(c *client, streamIdx int, ph *phases) int16 {
	conn := c.conn
	if conn == nil {
		tc, err := net.DialTCP("tcp", nil, g.raddr)
		if err != nil {
			return statusTransport
		}
		conn = tc
		if g.cfg.mode == closedKeepAlive {
			c.conn = conn
		}
	}
	ph.connected = g.since()
	status := g.talk(conn, c, streamIdx, ph)
	if g.cfg.mode != closedKeepAlive || status != 200 {
		// A failed persistent connection is replaced on the next exchange.
		conn.Close()
		c.conn = nil
	}
	return status
}

func (g *generator) talk(conn net.Conn, c *client, streamIdx int, ph *phases) int16 {
	// A deadline error surfaces through the write or the read below.
	_ = conn.SetDeadline(time.Now().Add(exchangeTimeout))
	if _, err := conn.Write(g.reqs[streamIdx]); err != nil {
		return statusTransport
	}
	ph.written = g.since()
	status, body, first, err := readResponse(conn, c.buf)
	if err != nil {
		return statusTransport
	}
	ph.firstByte = int64(first.Sub(g.t0))
	if status == 200 && !bytes.Equal(body, g.body) {
		return statusBadBody
	}
	return int16(status)
}

var (
	headerEnd     = []byte("\r\n\r\n")
	contentLength = []byte("\r\ncontent-length:")
)

// readResponse reads exactly one HTTP response (head plus Content-Length
// body) from conn into buf and returns its status code and body. It is the
// generator's own reader, so the program's httpwire is exercised only by the
// program. first is when the first bytes arrived.
func readResponse(conn net.Conn, buf []byte) (status int, body []byte, first time.Time, err error) {
	n, head := 0, -1
	for head < 0 {
		if n == len(buf) {
			return 0, nil, first, errors.New("response head too large")
		}
		m, err := conn.Read(buf[n:])
		if m > 0 && n == 0 {
			first = time.Now()
		}
		n += m
		head = bytes.Index(buf[:n], headerEnd)
		if err != nil && head < 0 {
			return 0, nil, first, err
		}
	}
	// Status line: "HTTP/1.x NNN ...".
	if head < 12 || !bytes.HasPrefix(buf, []byte("HTTP/1.")) {
		return 0, nil, first, errors.New("malformed status line")
	}
	status, err = strconv.Atoi(string(buf[9:12]))
	if err != nil {
		return 0, nil, first, errors.New("malformed status code")
	}
	length := 0
	if i := indexFold(buf[:head+2], contentLength); i >= 0 {
		v := buf[i+len(contentLength) : head+2]
		v = v[:bytes.IndexByte(v, '\r')]
		length, err = strconv.Atoi(string(bytes.TrimSpace(v)))
		if err != nil || length < 0 {
			return 0, nil, first, errors.New("malformed content-length")
		}
	}
	total := head + len(headerEnd) + length
	if total > len(buf) {
		return 0, nil, first, errors.New("response larger than the page requested")
	}
	for n < total {
		m, err := conn.Read(buf[n:total])
		n += m
		if err != nil && n < total {
			return 0, nil, first, err
		}
	}
	return status, buf[head+len(headerEnd) : total], first, nil
}

// indexFold is bytes.Index with ASCII case folding of s; pattern is lower
// case.
func indexFold(s, pattern []byte) int {
outer:
	for i := 0; i+len(pattern) <= len(s); i++ {
		for j, p := range pattern {
			ch := s[i+j]
			if 'A' <= ch && ch <= 'Z' {
				ch += 'a' - 'A'
			}
			if ch != p {
				continue outer
			}
		}
		return i
	}
	return -1
}

// collect returns the measured samples (with their phases when recorded) and
// how many 200s the generator received in all, warm-up included: the
// dispatcher's own count must agree with it. Call it after halt.
func (g *generator) collect() (all []sample, phs []phases, ok uint64) {
	for _, c := range g.clients {
		all = append(all, c.samples...)
		phs = append(phs, c.phases...)
		ok += c.warmOK
	}
	for _, s := range all {
		if s.status == 200 {
			ok++
		}
	}
	// Capped arrivals were never sent, so the dispatcher never saw them.
	all = append(all, g.capped...)
	if g.cfg.spans {
		phs = append(phs, make([]phases, len(g.capped))...)
	}
	return all, phs, ok
}

// fetch sends one request on a fresh connection and reads the one response
// into buf: the probe's and the report poll's exchange.
func fetch(addr string, request, buf []byte) (status int, body []byte, err error) {
	conn, err := net.DialTimeout("tcp", addr, exchangeTimeout)
	if err != nil {
		return 0, nil, err
	}
	defer conn.Close()
	// A deadline error surfaces through the write or the read below.
	_ = conn.SetDeadline(time.Now().Add(exchangeTimeout))
	if _, err := conn.Write(request); err != nil {
		return 0, nil, err
	}
	status, body, _, err = readResponse(conn, buf)
	return status, body, err
}
