// Package backend implements a real-TCP simulated RPN: a small origin
// server that answers synthetic page requests with configurable modeled
// resource costs, attributes usage to subscribers with the accounting
// module, and exposes the per-cycle accounting report the dispatcher polls —
// the live-network counterpart of the simulator's RPN, suitable for
// loopback clusters.
package backend

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"gage/internal/accounting"
	"gage/internal/core"
	"gage/internal/httpwire"
	"gage/internal/obs"
	"gage/internal/qos"
	"gage/internal/workload"
)

// SubscriberHeader carries the classified subscriber on dispatched requests.
const SubscriberHeader = "X-Gage-Subscriber"

// UsageHeader reports a request's modeled resource usage on responses, as
// "cpuNanos,diskNanos,netBytes".
const UsageHeader = "X-Gage-Usage"

// ReportPath serves the accounting message for the last cycle as JSON.
const ReportPath = "/_gage/report"

// Config tunes a backend server.
type Config struct {
	// Node is this backend's identity in accounting reports.
	Node core.NodeID
	// Costs models per-page resource usage (default workload.DefaultCostModel).
	Costs workload.CostModel
	// Delay, when positive, makes the backend hold each response for the
	// request's modeled CPU+disk time scaled by Delay — 1.0 approximates
	// real service time, 0 serves at memory speed (default).
	Delay float64
}

// Server is one backend instance.
type Server struct {
	cfg  Config
	acct *accounting.Accountant

	mu    sync.Mutex
	procs map[qos.SubscriberID]accounting.ProcessID

	wg     sync.WaitGroup
	closed chan struct{}

	// lnMu guards ln: Serve publishes it while Close may run concurrently.
	lnMu sync.Mutex
	ln   net.Listener

	// conns tracks open connections so Close can unpark the ones idling
	// between requests. Guarded by connMu.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// idleTimeout bounds each request's read and write on a connection
	// (IdleTimeout; tests shorten it).
	idleTimeout time.Duration
}

// IdleTimeout is how long a connection may sit between requests, or stall
// inside one, before the backend hangs up. A peer pooling connections to this
// server must retire its idle ones sooner.
const IdleTimeout = 30 * time.Second

// New creates a backend server.
func New(cfg Config) *Server {
	if cfg.Costs == (workload.CostModel{}) {
		cfg.Costs = workload.DefaultCostModel()
	}
	return &Server{
		cfg:         cfg,
		acct:        accounting.NewAccountant(cfg.Node),
		procs:       make(map[qos.SubscriberID]accounting.ProcessID),
		closed:      make(chan struct{}),
		conns:       make(map[net.Conn]struct{}),
		idleTimeout: IdleTimeout,
	}
}

// Serve accepts connections until the listener closes. Each connection is
// served by a request loop: it stays open for another request when the peer
// asked for persistence (HTTP/1.1 without "Connection: close", or HTTP/1.0
// with "Connection: keep-alive") — the dispatcher's pooled second leg — and
// closes after one request otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	select {
	case <-s.closed:
		// Close already ran: do not start accepting on a listener it will
		// never see again.
		s.lnMu.Unlock()
		return ln.Close()
	default:
	}
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return fmt.Errorf("backend: accept: %w", err)
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, unparks connections idling between requests, and
// waits for in-flight requests.
func (s *Server) Close() error {
	close(s.closed)
	s.lnMu.Lock()
	ln := s.ln
	s.lnMu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	// Expiring the read deadline wakes handlers parked in ReadRequest without
	// disturbing a response write in progress. A handler renews its deadline
	// before it checks closed, so one that misses this sweep sees closed.
	s.connMu.Lock()
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

// Report returns and resets the accounting message for the elapsed cycle.
func (s *Server) Report() core.UsageReport {
	return s.acct.Cycle()
}

// handle serves the requests of one connection until the peer stops asking
// for persistence, hangs up, stalls past the idle timeout, or the server
// closes. The connection owns one request, one response and one write
// scratch, reused for every request it carries.
func (s *Server) handle(conn net.Conn) {
	s.connMu.Lock()
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	var req httpwire.Request
	page := page{resp: httpwire.Response{StatusCode: 200, Header: make(map[string]string)}}
	for {
		// Misbehaving peers must not pin the handler forever; the deadline
		// renews per request. Deadline errors surface through the read below.
		_ = conn.SetDeadline(time.Now().Add(s.idleTimeout))
		select {
		case <-s.closed:
			return
		default:
		}
		if err := req.Read(br); err != nil {
			// Only bytes that do not parse earn an answer. A peer hanging up
			// between requests is the normal end of a persistent connection,
			// and an idle timeout or Close unparking the reader must not
			// leave a 400 behind for the peer to mistake for its next reply.
			if errors.Is(err, httpwire.ErrMalformedRequest) || errors.Is(err, httpwire.ErrBodyTooLarge) ||
				errors.Is(err, httpwire.ErrHeadTooLarge) {
				writeError(conn, 400)
			}
			return
		}
		if !s.serve(conn, &req, &page) {
			return
		}
		// The request is answered: nothing of it is read again, and a
		// connection idling in its peer's pool keeps no oversized head.
		req.Reset()
	}
}

// page is a connection's response and the scratch it is rendered and
// written from.
type page struct {
	resp httpwire.Response
	buf  []byte
}

// serve answers one request; it reports whether the connection stays open
// for another.
func (s *Server) serve(conn net.Conn, req *httpwire.Request, p *page) bool {
	if req.Path() == ReportPath {
		s.serveReport(conn)
		return false
	}
	size := pageSize(req.Path())
	cost := s.cfg.Costs.Cost(int64(size))
	h := p.resp.Header
	h["Content-Type"] = "text/html"
	// Echo the trace ID so the front end (and any log scraper watching the
	// backend side) can attribute the exchange to its end-to-end trace.
	if tid := req.Header[obs.TraceHeader]; tid != "" {
		h[obs.TraceHeader] = tid
	}
	// Persistence is agreed per hop: the echo tells the peer this connection
	// takes another request; without it the peer must assume one-shot.
	keep := req.KeepAlive()
	if keep {
		h["Connection"] = "keep-alive"
	}
	// The usage line is composed behind the head's other lines — as a header
	// value it would cost a string — and the synthetic page is rendered behind
	// the head, straight into the bytes that go on the wire.
	p.buf = p.resp.AppendHead(p.buf[:0], int64(size))
	clear(h) // rendered; the echoed trace ID is a view of the request's head
	p.buf = append(p.buf, UsageHeader+": "...)
	p.buf = strconv.AppendInt(p.buf, cost.CPUTime.Nanoseconds(), 10)
	p.buf = append(p.buf, ',')
	p.buf = strconv.AppendInt(p.buf, cost.DiskTime.Nanoseconds(), 10)
	p.buf = append(p.buf, ',')
	p.buf = strconv.AppendInt(p.buf, cost.NetBytes, 10)
	p.buf = append(p.buf, "\r\n\r\n"...)
	p.buf = append(p.buf, make([]byte, size)...) // grows in place: no temporary
	body := p.buf[len(p.buf)-size:]
	for i := range body {
		body[i] = 'a' + byte(i%26)
	}
	if s.cfg.Delay > 0 {
		time.Sleep(time.Duration(float64(cost.CPUTime+cost.DiskTime) * s.cfg.Delay))
	}
	// The work is done, so usage is charged whether or not the response
	// write finds the client still there — and before it, so that a peer
	// holding the response finds the charge in the next report.
	s.charge(req, cost)
	_, err := conn.Write(p.buf)
	if cap(p.buf) > maxScratch {
		p.buf = nil
	}
	return err == nil && keep
}

// maxScratch is the largest write scratch a connection keeps between
// requests; one multi-megabyte page must not pin its size until the
// connection closes.
const maxScratch = 64 << 10

// charge attributes the request's usage to its subscriber's process tree.
func (s *Server) charge(req *httpwire.Request, cost qos.Vector) {
	sub := qos.SubscriberID(req.Header[SubscriberHeader])
	if sub == "" {
		sub = "unclassified"
	}
	s.mu.Lock()
	pid, ok := s.procs[sub]
	if !ok {
		// First sight: the id outlives the request as a key here and in the
		// accountant, and the header value dies with the request's head.
		sub = qos.SubscriberID(strings.Clone(string(sub)))
		pid = s.acct.Launch(sub)
		s.procs[sub] = pid
	}
	s.mu.Unlock()
	// Charging a live, tracked process cannot fail.
	_ = s.acct.Charge(pid, cost)
	_ = s.acct.CompleteRequest(pid)
}

// reportJSON is the wire form of a usage report.
type reportJSON struct {
	Node         int                      `json:"node"`
	TotalCPU     int64                    `json:"totalCpuNanos"`
	TotalDisk    int64                    `json:"totalDiskNanos"`
	TotalNet     int64                    `json:"totalNetBytes"`
	BySubscriber map[string]subscriberUse `json:"bySubscriber"`
}

type subscriberUse struct {
	CPU       int64 `json:"cpuNanos"`
	Disk      int64 `json:"diskNanos"`
	Net       int64 `json:"netBytes"`
	Completed int   `json:"completed"`
}

// serveReport answers the dispatcher's accounting poll with *cumulative*
// totals, so a lost poll response loses no usage: the poller diffs against
// its last-seen snapshot.
func (s *Server) serveReport(conn net.Conn) {
	rep := s.acct.CumulativeReport()
	body, err := json.Marshal(encodeReport(rep))
	if err != nil {
		writeError(conn, 500)
		return
	}
	resp := &httpwire.Response{
		StatusCode: 200,
		Header:     map[string]string{"Content-Type": "application/json"},
		Body:       body,
	}
	// Failed writes mean the poller disconnected; the usage in this report
	// is lost, exactly as a dropped accounting message would be.
	_ = resp.Write(conn)
}

// encodeReport converts a usage report to its JSON wire form.
func encodeReport(rep core.UsageReport) reportJSON {
	by := make(map[string]subscriberUse, len(rep.BySubscriber))
	for id, u := range rep.BySubscriber {
		by[string(id)] = subscriberUse{
			CPU:       u.Usage.CPUTime.Nanoseconds(),
			Disk:      u.Usage.DiskTime.Nanoseconds(),
			Net:       u.Usage.NetBytes,
			Completed: u.Completed,
		}
	}
	return reportJSON{
		Node:         int(rep.Node),
		TotalCPU:     rep.Total.CPUTime.Nanoseconds(),
		TotalDisk:    rep.Total.DiskTime.Nanoseconds(),
		TotalNet:     rep.Total.NetBytes,
		BySubscriber: by,
	}
}

// DecodeReport parses the JSON form back into a usage report.
func DecodeReport(body []byte) (core.UsageReport, error) {
	return DecodeReportInto(body, nil)
}

// DecodeReportInto is DecodeReport with a caller-supplied subscriber map to
// reuse (cleared first); nil allocates fresh. The accounting poller cycles a
// retired report's map back in here so steady-state polling does not grow
// the heap with every cycle.
func DecodeReportInto(body []byte, reuse map[qos.SubscriberID]core.SubscriberUsage) (core.UsageReport, error) {
	var r reportJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return core.UsageReport{}, fmt.Errorf("backend: decode report: %w", err)
	}
	if reuse == nil {
		reuse = make(map[qos.SubscriberID]core.SubscriberUsage, len(r.BySubscriber))
	} else {
		clear(reuse)
	}
	rep := core.UsageReport{
		Node: core.NodeID(r.Node),
		Total: qos.Vector{
			CPUTime:  time.Duration(r.TotalCPU),
			DiskTime: time.Duration(r.TotalDisk),
			NetBytes: r.TotalNet,
		},
		BySubscriber: reuse,
	}
	for id, u := range r.BySubscriber {
		rep.BySubscriber[qos.SubscriberID(id)] = core.SubscriberUsage{
			Usage: qos.Vector{
				CPUTime:  time.Duration(u.CPU),
				DiskTime: time.Duration(u.Disk),
				NetBytes: u.Net,
			},
			Completed: u.Completed,
		}
	}
	return rep, nil
}

// ParseUsageHeader parses an X-Gage-Usage response header.
func ParseUsageHeader(v string) (qos.Vector, error) {
	parts := strings.Split(v, ",")
	if len(parts) != 3 {
		return qos.Vector{}, errors.New("backend: malformed usage header")
	}
	cpu, err1 := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	disk, err2 := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
	nb, err3 := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return qos.Vector{}, errors.New("backend: malformed usage header")
	}
	return qos.Vector{CPUTime: time.Duration(cpu), DiskTime: time.Duration(disk), NetBytes: nb}, nil
}

// pageSize derives the synthetic page size from a path. Paths of the form
// /static/<n>.html (or any path containing a "<n>" numeric segment before
// the extension) get n bytes; /cgi-bin/ paths get 3 KB; everything else 6 KB.
func pageSize(path string) int {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.IndexByte(base, '.'); i >= 0 {
		base = base[:i]
	}
	if n, err := strconv.Atoi(base); err == nil && n >= 0 && n <= 8<<20 {
		return n
	}
	if strings.HasPrefix(path, "/cgi-bin/") {
		return 3 * 1024
	}
	return workload.SixKBPage
}

func writeError(conn net.Conn, code int) {
	resp := &httpwire.Response{StatusCode: code, Header: map[string]string{}}
	// The peer may already be gone; nothing else to do.
	_ = resp.Write(conn)
}
