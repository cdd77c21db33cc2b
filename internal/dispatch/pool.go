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
	"gage/internal/core"
	"gage/internal/httpwire"
	"gage/internal/obs"
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

func (p *connPool) put(c net.Conn, now time.Time) {
	p.mu.Lock()
	p.idle = append(p.idle, idleConn{conn: c, since: now})
	p.mu.Unlock()
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

// reapIdle closes a pool's connections parked at or before cutoff: the
// accounting tick passes the expiry horizon, a flush passes now.
func (s *Server) reapIdle(p *connPool, cutoff time.Time) {
	for _, ic := range p.reap(cutoff) {
		s.closeBackend(ic.conn)
	}
}

// flushIdle closes every idle connection to a node whose breaker opened or
// which is being drained; exchanges in flight are left to finish.
func (s *Server) flushIdle(id core.NodeID) {
	if p := s.top().pools[id]; p != nil {
		s.reapIdle(p, time.Now())
	}
}

// progress says how far a failed exchange got.
type progress int

const (
	notSent      progress = iota // the request was not fully written
	noReply                      // written, but no response byte arrived
	partialReply                 // the response started and then failed
)

// errUnknownNode marks a dispatch to a node the topology does not hold yet:
// an admin add registers the node with the scheduler a moment before it
// publishes the topology.
var errUnknownNode = errors.New("dispatch: node not in topology")

// exchange sends the request to a node and reads the whole response, on an
// idle pooled connection when the node has one and on a fresh dial otherwise.
//
// A pooled connection that fails before the first response byte is stale
// (the backend closed it while it idled): it is discarded and the exchange
// repeated once on a fresh dial to the same node, which costs neither the
// breaker nor the retry budget. Every other failure is noted on the node's
// breaker. sent reports whether the request may have reached the backend: a
// refused, undialled or partially written request (sent false) is safe to
// re-aim at an alternate — the client has seen nothing — while a failure
// after the request went out is final.
//
// After a complete exchange the connection goes back to the pool if the
// backend's response agreed to keep it open, and is closed otherwise.
func (s *Server) exchange(pc *pendingConn, node core.NodeID) (resp *httpwire.Response, sent bool, err error) {
	if !s.breakerAllow(node) {
		return nil, false, errBreakerRefused
	}
	t := s.top()
	pool := t.pools[node]
	if pool == nil {
		return nil, false, errUnknownNode
	}
	// Tag the request with its charging entity for backend accounting, and
	// with its trace ID so the backend can echo it back for attribution.
	// Connection is hop-by-hop: on this leg it is the dispatcher, not the
	// client, that asks for persistence.
	if pc.req.Header == nil {
		pc.req.Header = make(map[string]string)
	}
	pc.req.Header[backend.SubscriberHeader] = string(pc.sub)
	if pc.tid != 0 {
		pc.req.Header[obs.TraceHeader] = pc.tid.String()
	}
	pc.req.Header["Connection"] = "keep-alive"

	c := pool.take()
	for reused := c != nil; ; reused = false {
		if reused {
			pool.reuses.Add(1)
		} else {
			pool.dials.Add(1)
			c, err = s.cfg.Dial("tcp", t.addrs[node], s.cfg.DialTimeout)
			if err != nil {
				s.noteBreaker(node, breaker.Relay, false)
				return nil, false, err
			}
			s.trackBackend(c)
		}
		resp, keep, got, err := s.attempt(pc, c)
		if err == nil {
			// Only a complete exchange counts as relay success: a backend
			// that accepts TCP but fails every request must still trip its
			// breaker, so success is noted here rather than at dial time.
			s.noteBreaker(node, breaker.Relay, true)
			// A draining node gets no further dispatches; a release racing
			// the drain's flush is caught by the idle expiry instead.
			if keep && !s.top().draining[node] {
				pool.put(c, time.Now())
			} else {
				s.closeBackend(c)
			}
			return resp, true, nil
		}
		s.closeBackend(c)
		if reused && got != partialReply && !errors.Is(err, os.ErrDeadlineExceeded) {
			continue
		}
		s.noteBreaker(node, breaker.Relay, false)
		return nil, got != notSent, err
	}
}

// attempt runs one request/response exchange on c, bounded by
// BackendTimeout. keep reports whether c can carry another exchange: the
// backend echoed the keep-alive and left nothing unread behind the response.
func (s *Server) attempt(pc *pendingConn, c net.Conn) (resp *httpwire.Response, keep bool, got progress, err error) {
	_ = c.SetDeadline(time.Now().Add(s.cfg.BackendTimeout))
	if err := pc.req.Write(c); err != nil {
		return nil, false, notSent, err
	}
	// Parse the response so the client connection's framing survives for
	// the next request; usage accounting arrives separately via the
	// periodic report poll.
	rbr := getReader(c)
	defer putReader(rbr)
	if _, err := rbr.Peek(1); err != nil {
		return nil, false, noReply, err
	}
	resp, err = httpwire.ReadResponse(rbr)
	if err != nil {
		return nil, false, partialReply, err
	}
	keep = strings.EqualFold(resp.Header["Connection"], "keep-alive") && rbr.Buffered() == 0
	return resp, keep, 0, nil
}
