package dispatch

import (
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gage/internal/backend"
	"gage/internal/breaker"
	"gage/internal/obs"
	"gage/internal/telemetry"
)

// backendIdleExpiry is how long a pooled backend connection may sit idle
// before the accounting tick retires it, which also bounds how long a burst's
// surplus connections are held. It stays strictly below the
// backend's own idle deadline, so in steady state the dispatcher closes
// first and a connection taken from the pool is live.
const backendIdleExpiry = backend.IdleTimeout / 3

// idleConn is one pooled backend connection and when it was parked.
type idleConn struct {
	conn  net.Conn
	since time.Time
}

// connPool is one backend's idle persistent connections, a stack: the most
// recently parked connection is reused first, so a burst's surplus sinks to
// the bottom and ages out. It also counts the relay leg's dials and reuses.
type connPool struct {
	mu sync.Mutex
	// idle is ordered by since, oldest first.
	idle []idleConn

	// dials counts connections dialled for relays (the accounting poll's are
	// not relays), reuses exchanges started on a pooled connection.
	dials  atomic.Uint64
	reuses atomic.Uint64
}

// take pops the most recently parked connection, or nil.
func (p *connPool) take() net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	c := p.idle[n-1].conn
	p.idle[n-1] = idleConn{}
	p.idle = p.idle[:n-1]
	return c
}

// park returns c to the node's idle pool, unless the node is draining: no
// dispatch will ask for its connections again. The mark is read under the
// pool's lock and a drain sets it before it flushes the pool, so a release
// racing the drain is either refused here or reaped by that flush.
func (n *nodeEntry) park(c net.Conn, now time.Time) bool {
	p := &n.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if n.draining.Load() {
		return false
	}
	p.idle = append(p.idle, idleConn{conn: c, since: now})
	return true
}

// reap removes and returns the connections parked at or before cutoff.
func (p *connPool) reap(cutoff time.Time) []idleConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for n < len(p.idle) && !p.idle[n].since.After(cutoff) {
		n++
	}
	if n == 0 {
		return nil
	}
	old := append([]idleConn(nil), p.idle[:n]...)
	rest := copy(p.idle, p.idle[n:])
	clear(p.idle[rest:])
	p.idle = p.idle[:rest]
	return old
}

// reapIdle closes a node's idle connections parked at or before cutoff: the
// accounting tick passes the expiry horizon; a node whose breaker opened or
// which is being drained is flushed by passing now. Exchanges in flight are
// left to finish.
func (s *Server) reapIdle(n *nodeEntry, cutoff time.Time) {
	for _, ic := range n.pool.reap(cutoff) {
		s.closeBackend(ic.conn)
	}
}

// progress says how far a failed exchange got.
type progress int

const (
	notSent      progress = iota // the request was not fully written
	noReply                      // written, but no response byte arrived
	partialReply                 // the response started and then failed
)

// errUnknownNode marks a dispatch to a node the topology does not hold yet
// (see Server.node).
var errUnknownNode = errors.New("dispatch: node not in topology")

// reply is a backend response as exchange hands it to forward: the head is
// parsed into w.resp, w.br holds as much of the body as arrived with it, and
// the rest is still to come on c.
type reply struct {
	c net.Conn
	w *wire
	// n is the body length.
	n int64
	// keep: the backend agreed to another exchange on c.
	keep bool
}

// exchange sends the request to a node and reads the response head, on an
// idle pooled connection when the node has one and on a fresh dial otherwise.
// It returns with the head parsed and the backend reader filled as far as the
// body goes; forward sends both on and settles the connection.
//
// A pooled connection that fails before the first response byte is stale
// (the backend closed it while it idled): it is discarded and the exchange
// repeated once on a fresh dial to the same node, which costs neither the
// breaker nor the retry budget. Every other failure is noted on the node's
// breaker. sent reports whether the request may have reached the backend: a
// refused, undialled or partially written request (sent false) is safe to
// re-aim at an alternate — the client has seen nothing — while a failure
// after the request went out is final.
func (s *Server) exchange(pc *pendingConn, n *nodeEntry) (rep reply, sent bool, err error) {
	if n == nil {
		return reply{}, false, errUnknownNode
	}
	if !n.breaker.Allow(time.Now()) {
		return reply{}, false, errBreakerRefused
	}
	// Tag the request with its charging entity for backend accounting, and
	// with its trace ID so the backend can echo it back for attribution.
	// Connection is hop-by-hop: on this leg it is the dispatcher, not the
	// client, that asks for persistence. The trace line is composed straight
	// into the scratch — as a header value it would cost a string.
	w := pc.w
	h := w.req.Header
	h[backend.SubscriberHeader] = string(pc.sub)
	h["Connection"] = "keep-alive"
	delete(h, obs.TraceHeader)
	w.buf = w.req.AppendHead(w.buf[:0])
	if pc.tid != 0 {
		w.buf = append(w.buf, obs.TraceHeader+": "...)
		w.buf = pc.tid.Append(w.buf)
		w.buf = append(w.buf, "\r\n"...)
	}
	w.buf = append(w.buf, "\r\n"...)
	w.buf = append(w.buf, w.req.Body...)

	c := n.pool.take()
	for reused := c != nil; ; reused = false {
		if reused {
			n.pool.reuses.Add(1)
		} else {
			n.pool.dials.Add(1)
			c, err = s.cfg.Dial("tcp", n.addr, s.cfg.DialTimeout)
			if err != nil {
				s.noteBreaker(n, breaker.Relay, false)
				return reply{}, false, err
			}
			s.trackBackend(c)
		}
		rep, got, err := s.attempt(w.buf, c)
		if err == nil {
			return rep, true, nil
		}
		s.closeBackend(c)
		if reused && got != partialReply && !errors.Is(err, os.ErrDeadlineExceeded) {
			continue
		}
		s.noteBreaker(n, breaker.Relay, false)
		return reply{}, got != notSent, err
	}
}

// attempt writes the composed request on c and reads the response head,
// bounded by BackendTimeout; forward renews the bound for each further read
// of the body. Usage accounting arrives separately via the periodic report
// poll.
func (s *Server) attempt(request []byte, c net.Conn) (rep reply, got progress, err error) {
	_ = c.SetDeadline(time.Now().Add(s.cfg.BackendTimeout))
	if _, err := c.Write(request); err != nil {
		return reply{}, notSent, err
	}
	w := getWire(c)
	if _, err := w.br.Peek(1); err != nil {
		putWire(w)
		return reply{}, noReply, err
	}
	n, err := w.resp.ReadHead(w.br)
	if err == nil {
		// Fill the reader as far as the body goes before the client sees a
		// byte: a response that fits the buffer is then whole or a 502, as
		// it was when the relay read every response to its end.
		_, err = w.br.Peek(int(min(n, int64(w.br.Size()))))
	}
	if err != nil {
		putWire(w)
		return reply{}, partialReply, err
	}
	keep := strings.EqualFold(w.resp.Header["Connection"], "keep-alive")
	return reply{c: c, w: w, n: n, keep: keep}, 0, nil
}

// forward sends a reply on to the client and settles the backend connection.
// The edited head and the body bytes the backend reader holds go out in one
// client write; a longer body's remainder is read off the backend connection
// and written to the client's through the same scratch, so the call that
// fails names the leg that failed. A response the reader holds whole releases
// its backend connection before the client write, so a slow client never
// keeps a backend connection out of the pool. The outcome is served when the
// client has the whole response; otherwise it is error for a backend that
// broke off, went quiet for BackendTimeout or closed short of the body, and
// client-gone for a client write that failed.
func (s *Server) forward(pc *pendingConn, n *nodeEntry, rep reply) telemetry.Outcome {
	defer putWire(rep.w)
	// The backend's Connection header spoke for its own leg; the client's
	// persistence is the client's to choose.
	delete(rep.w.resp.Header, "Connection")
	w := pc.w
	w.buf = rep.w.resp.AppendHead(w.buf[:0], rep.n)
	w.buf = append(w.buf, "\r\n"...)
	held, _ := rep.w.br.Peek(int(min(rep.n, int64(rep.w.br.Buffered()))))
	w.buf = append(w.buf, held...)
	_, _ = rep.w.br.Discard(len(held)) // buffered bytes: cannot fail
	left := rep.n - int64(len(held))
	whole := left == 0
	if whole {
		s.settle(n, rep, true, true)
	}
	outcome := telemetry.OutcomeServed
	if _, err := w.conn.Write(w.buf); err != nil {
		outcome = telemetry.OutcomeClientGone
	}
	// held emptied the reader, so the remainder comes straight off rep.c.
	// The time a slow client takes is not the backend's: each read gets a
	// BackendTimeout of its own.
	chunk := w.buf[:cap(w.buf)]
	for left > 0 && outcome == telemetry.OutcomeServed {
		_ = rep.c.SetReadDeadline(time.Now().Add(s.cfg.BackendTimeout))
		n, err := rep.c.Read(chunk[:min(left, int64(len(chunk)))])
		left -= int64(n)
		if n > 0 {
			if _, werr := w.conn.Write(chunk[:n]); werr != nil {
				outcome = telemetry.OutcomeClientGone
				break
			}
		}
		if err != nil && left > 0 {
			outcome = telemetry.OutcomeError
		}
	}
	if !whole {
		s.settle(n, rep, left == 0, outcome != telemetry.OutcomeError)
	}
	return outcome
}

// settle ends an exchange: its outcome is noted on the node's breaker and the
// connection parked or closed. The breaker hears of an exchange once, here,
// when the body's fate is known — success at dial time or at the head would
// let a backend that accepts TCP and then fails every request keep a clean
// record. backendOK is false only for a backend that broke off mid-body; a
// client that left mid-body is no failure of the backend's, and noting the
// exchange a success also resolves a half-open trial it may have been. The
// connection goes back to the node's pool if the whole body was taken off it
// (drained), the backend agreed to keep it open, nothing unread trails the
// response, and the node is not draining (see park).
func (s *Server) settle(n *nodeEntry, rep reply, drained, backendOK bool) {
	s.noteBreaker(n, breaker.Relay, backendOK)
	if !(drained && rep.keep && rep.w.br.Buffered() == 0 && n.park(rep.c, time.Now())) {
		s.closeBackend(rep.c)
	}
}
