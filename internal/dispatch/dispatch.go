// Package dispatch is the live-network Gage front end: a TCP listener that
// classifies incoming HTTP requests by virtual host, submits them to the core
// scheduler — which dispatches a request its subscriber's reservation already
// covers as it arrives and holds any other in the subscriber's queue for the
// scheduling tick — relays them to back-end servers under the credit-based
// QoS discipline, and feeds the back ends' accounting reports into the
// scheduler's balances.
//
// It plays the RDN's role over real sockets. The first-leg handshake and
// URL read happen here; the second leg is a persistent connection to the
// chosen backend, taken from that node's idle pool or dialled when the pool
// is empty. After dispatch the front end touches only heads, as the paper's
// RDN touches only headers (§3.3): each message is parsed once, into
// messages the connection handler owns and reuses, the response head is
// edited and written from the handler's scratch together with whatever body
// the backend reader already holds, and the rest of the body is passed on
// through that same scratch as it arrives, never held whole —
// application-level splicing, the deployable stand-in for the kernel-level
// packet remapping that internal/splice models packet by packet.
package dispatch

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gage/internal/backend"
	"gage/internal/breaker"
	"gage/internal/classify"
	"gage/internal/core"
	"gage/internal/flightrec"
	"gage/internal/httpwire"
	"gage/internal/obs"
	"gage/internal/qos"
	"gage/internal/telemetry"
)

// Backend declares one back-end server to the dispatcher.
type Backend struct {
	// ID is the node identity used by the scheduler and in reports.
	ID core.NodeID
	// Addr is the host:port the backend listens on.
	Addr string
	// Capacity is the node's per-second resource capacity.
	Capacity qos.Vector
}

// Config assembles a dispatcher.
type Config struct {
	// Subscribers defines sites, hosts, reservations.
	Subscribers []qos.Subscriber
	// Backends lists the back-end pool (at least one).
	Backends []Backend
	// Scheduler tunes the core scheduler (defaults apply).
	Scheduler core.Config
	// AcctCycle is how often backends are polled for usage (default 100 ms).
	AcctCycle time.Duration
	// DialTimeout bounds backend dials (default 2 s).
	DialTimeout time.Duration
	// QueueTimeout bounds how long an accepted request may wait for a
	// dispatch decision before it is abandoned with a 503 (default 30 s).
	QueueTimeout time.Duration
	// RetryBackoff is the pause before the relay's single retry against an
	// alternate backend after a dial failure (default 25 ms).
	RetryBackoff time.Duration
	// MaxConns caps concurrently accepted client connections; connections
	// past the cap are shed with a fast 503. It also sizes the
	// per-subscriber in-flight request quotas (proportional to
	// reservations) that shed spare-capacity traffic first under
	// saturation. 0 means unlimited (admission control off).
	MaxConns int
	// DrainTimeout bounds Close's drain phase: how long in-flight requests
	// may keep finishing after the listener stops accepting, before they
	// are abandoned (default 5 s).
	DrainTimeout time.Duration
	// ClientIdleTimeout bounds each request's client-side read/write on a
	// persistent connection (default 60 s).
	ClientIdleTimeout time.Duration
	// BackendTimeout bounds how long a backend may keep a relay waiting: the
	// request write and the response head together, then each further read
	// of the body (default 60 s).
	BackendTimeout time.Duration
	// Breaker tunes the per-backend circuit breakers (defaults apply; see
	// package breaker).
	Breaker breaker.Config
	// TraceSampleEvery samples every Nth request's lifecycle trace
	// deterministically (request IDs divisible by N). 1 traces everything,
	// 0 (the default) disables tracing; unsampled requests pay no
	// allocation. Sampled traces are retained in a ring served at
	// TracePath.
	TraceSampleEvery int
	// TraceBuffer is the completed-trace ring capacity (default 256).
	TraceBuffer int
	// CycleRingSize enables the scheduler's flight recorder with a ring
	// retaining that many cycle records, served at CyclesPath and audited
	// for guarantee conformance at MetricsPath. 0 leaves recording off
	// (the scheduler's hot path then pays one nil check per tick) unless
	// CycleLog is set, in which case the default ring size applies.
	CycleRingSize int
	// CycleLog, when non-nil, receives every committed cycle record as one
	// JSON line — a flight log `gagetrace audit` replays offline. Implies
	// recording even when CycleRingSize is 0.
	CycleLog io.Writer
	// ConformanceWindow is the conformance auditor's slow sliding window
	// (default 10 s); the fast burn-rate window derives as one tenth of
	// it. Only meaningful with recording enabled.
	ConformanceWindow time.Duration
	// RDN is this front end's instance id: it salts every minted trace ID
	// (obs.Mint) and stamps bus events, so merged multi-RDN logs stay
	// attributable. Zero is the single-RDN pipeline.
	RDN int
	// EventRingSize enables the unified observability event bus with a ring
	// retaining that many events, served at EventsPath. Lifecycle spans of
	// sampled traces, cycle commits, tier events, breaker transitions,
	// admin decisions and conformance violations all publish into it. 0
	// leaves the bus off unless EventLog is set, in which case the default
	// ring size applies.
	EventRingSize int
	// EventLog, when non-nil, receives every bus event as one JSON line —
	// the stream `gagetrace explain` and `gagetrace lint` consume.
	EventLog io.Writer
	// ExemplarsPerSpan is how many recent sampled trace IDs the conformance
	// auditor attaches to each violation span it opens (default 4, negative
	// disables). Only meaningful with recording enabled.
	ExemplarsPerSpan int
	// Owns reports whether this front end currently owns a tenant group —
	// the multi-RDN tier's partition-aware admission. When set, requests
	// whose subscriber's group is homed on another RDN are refused with 503
	// at classification (counted in Stats.NotOwned) instead of being queued
	// on a scheduler that must not accrue their state. Nil owns everything
	// (the single-RDN pipeline).
	Owns func(group string) bool
	// Fence validates this front end's claim on a group immediately before
	// a relay: a false verdict means the front end was deposed — its lease
	// epoch superseded — between the scheduling decision and the splice.
	// The dispatch charge is reclaimed and the request refused with 503
	// (counted in Stats.Fenced), so a deposed RDN's in-flight decisions
	// never reach a backend twice-owned. Nil disables fencing.
	Fence func(group string) bool
	// AdmitHeadroom is the fraction of enabled capacity the admin control
	// plane lets reservations commit, in (0, 1]. 0 means 1.0 — commit up to
	// the full physical rate (see package admitctl).
	AdmitHeadroom float64
	// Dial opens backend connections; nil means net.DialTimeout. Fault
	// drills swap in a chaos dialer here to script backend outages without
	// touching real processes.
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)
	// Logger receives operational errors (default: standard logger).
	Logger *log.Logger
}

// Stats counts dispatcher outcomes.
type Stats struct {
	// Accepted is connections accepted.
	Accepted uint64
	// Served is requests relayed successfully.
	Served uint64
	// Rejected is requests refused with 503 (queue overflow).
	Rejected uint64
	// Unclassified is requests with no matching subscriber (404).
	Unclassified uint64
	// Errors is backend dial/relay failures (502).
	Errors uint64
	// Retried is relays re-dispatched to an alternate backend after a
	// dial failure.
	Retried uint64
	// Abandoned is requests withdrawn after enqueue (wait timeout, client
	// hang-up, shutdown) whose scheduler charge was reclaimed.
	Abandoned uint64
	// ShedConns is connections refused with a fast 503 past MaxConns.
	ShedConns uint64
	// Shed is requests refused by per-subscriber admission control (spare
	// traffic beyond quota while the in-flight cap is saturated).
	Shed uint64
	// NotOwned is requests refused because their tenant group is homed on
	// another front end (Config.Owns).
	NotOwned uint64
	// Fenced is dispatches refused at relay because this front end was
	// deposed between decision and splice (Config.Fence); their scheduler
	// charges were reclaimed.
	Fenced uint64
	// HandedOff is queued requests withdrawn at Close because their group
	// migrated to another front end — redispatchable there, not shed.
	HandedOff uint64
	// DispatchedOnArrival and DispatchedAtTick split the dispatch decisions
	// handed to a serving goroutine by when they were made: as the request
	// arrived, its subscriber's reservation already covering it, or by a
	// scheduling cycle after a wait in the queue. A subscriber sliding from
	// the first to the second has gone from in credit to paced by the tick.
	DispatchedOnArrival uint64
	DispatchedAtTick    uint64
}

// topology is the dispatcher's elastic membership state: the subscriber
// directory and classifier, and one record per subscriber and per backend.
// A published topology is immutable — hot paths read it with one atomic load
// and index its maps lock-free. Admin mutations build a modified copy under
// Server.adminMu and swap the pointer (copy-on-write); the records carry
// across by pointer, so streaks, snapshots, pooled connections and histograms
// survive the swap.
type topology struct {
	dir        *qos.Directory
	classifier classify.Classifier
	subs       map[qos.SubscriberID]*subEntry
	nodes      map[core.NodeID]*nodeEntry
}

// subEntry is what the dispatcher keeps per subscriber besides the directory.
type subEntry struct {
	// group is the tenant group, the unit of partition admission and fencing.
	group string
	// reqLat is the end-to-end latency of served requests behind MetricsPath.
	reqLat *telemetry.Histogram
}

// nodeEntry is one backend's row of dispatcher state. It is created once and
// shared by every topology that holds the node, so whoever resolved it — a
// relay, a poll — keeps seeing the same breaker, pool and draining mark
// whatever swaps meanwhile; each part synchronizes itself.
type nodeEntry struct {
	id   core.NodeID
	addr string
	// breaker gates the node's health: accounting-poll and relay failures
	// feed per-source streaks, and the scheduler's node weight follows the
	// breaker's slow-start ramp.
	breaker *breaker.Breaker
	// acct is the accounting-poll state, under its own mutex so polls of
	// different nodes never serialize.
	acct nodeAcct
	// pool holds the idle persistent connections and the dial/reuse counters.
	pool connPool
	// relayLat is the backend-exchange latency behind MetricsPath.
	relayLat *telemetry.Histogram
	// draining marks a node being gracefully retired: applyWeight pins its
	// scheduler weight at 0 whatever the breaker says, so the per-cycle
	// breaker tick cannot ramp it back into the rotation, and park refuses
	// its connections.
	draining atomic.Bool
}

// clone copies the topology's maps (shallow: the records carry across by
// pointer) so an admin mutation can edit the copy and publish it atomically.
func (t *topology) clone() *topology {
	return &topology{
		dir:        t.dir,
		classifier: t.classifier,
		subs:       maps.Clone(t.subs),
		nodes:      maps.Clone(t.nodes),
	}
}

// withSubscribers returns a topology over t's nodes whose directory and
// classifier hold subs. A subscriber t already knows keeps its record; a new
// one gets a fresh one.
func (t *topology) withSubscribers(subs []qos.Subscriber) (*topology, error) {
	dir, err := qos.NewDirectory(subs)
	if err != nil {
		return nil, err
	}
	cp := &topology{
		dir:        dir,
		classifier: classify.NewHostClassifier(dir),
		subs:       make(map[qos.SubscriberID]*subEntry, len(subs)),
		nodes:      t.nodes,
	}
	for _, sub := range subs {
		ent := t.subs[sub.ID]
		if ent == nil {
			ent = &subEntry{group: sub.Group, reqLat: telemetry.NewHistogram()}
		}
		cp.subs[sub.ID] = ent
	}
	return cp, nil
}

// Server is a running dispatcher.
type Server struct {
	cfg    Config
	sched  *core.Scheduler
	logger *log.Logger

	// topo is the elastic membership state (see topology), replaced only by
	// admin mutations holding adminMu.
	topo atomic.Pointer[topology]
	// adminMu serializes control-plane mutations: topology swaps, scheduler
	// membership calls, and admission-quota rebalances form one atomic
	// admin operation under it.
	adminMu sync.Mutex

	accepted     atomic.Uint64
	served       atomic.Uint64
	rejected     atomic.Uint64
	unclassified atomic.Uint64
	errs         atomic.Uint64
	retried      atomic.Uint64
	abandoned    atomic.Uint64
	shedConns    atomic.Uint64
	shedReqs     atomic.Uint64
	notOwned     atomic.Uint64
	fenced       atomic.Uint64
	handedOff    atomic.Uint64
	atArrival    atomic.Uint64
	atTick       atomic.Uint64
	// tickMissed counts scheduling cycles that were not run at their own
	// time (see runTicks); tickLate is how far past due each wake found its
	// oldest owed cycle.
	tickMissed atomic.Uint64
	tickLate   *telemetry.Histogram

	mu sync.Mutex
	ln net.Listener
	// adminLn is the optional private control-plane listener (ServeAdmin),
	// closed alongside ln.
	adminLn net.Listener
	closed  bool
	// stopCh aborts everything: queue waits, retry backoffs, the tick and
	// accounting loops. It closes only after the drain phase.
	stopCh chan struct{}
	// drainCh closes first on shutdown: stop accepting requests, but let
	// the loops keep dispatching what is already in flight.
	drainCh chan struct{}
	// connWG tracks client-connection handlers — the work Close drains.
	connWG sync.WaitGroup
	// loopWG tracks the tick/accounting loops and pollers, which must
	// outlive the drain so queued requests still dispatch during it.
	loopWG sync.WaitGroup

	// conns tracks accepted connections, client and control-plane (value
	// true) alike, so Close can nudge idle keep-alive readers (deadline zap)
	// and later force-close stragglers; clients counts the client ones, which
	// alone are held to MaxConns. Guarded by connMu.
	connMu  sync.Mutex
	conns   map[net.Conn]bool
	clients int

	// beConns tracks live backend connections, in an exchange or idle in a
	// pool, from dial to close, so the post-drain abort can cut hung
	// exchanges instead of waiting out BackendTimeout and leaves no pooled
	// connection open. Guarded by beMu.
	beMu    sync.Mutex
	beConns map[net.Conn]struct{}

	// idleExpiry is how long a pooled backend connection may idle before the
	// accounting tick retires it (backendIdleExpiry; tests shorten it).
	idleExpiry time.Duration

	// admission is the reservation-aware in-flight limiter (MaxConns).
	admission *admission

	// tracer samples per-request lifecycle traces (Config.TraceSampleEvery).
	tracer *telemetry.Tracer

	// bus is the unified observability event ring (Config.EventRingSize),
	// nil when the bus is off — every publisher is nil-safe.
	bus *obs.Bus

	// rec is the scheduler's flight recorder and auditor its conformance
	// view, both nil when Config left recording off (CyclesPath then 404s
	// and MetricsPath omits the conformance families).
	rec     *flightrec.Recorder
	auditor *flightrec.Auditor

	// migMu guards the migrating-group set and the handoff backlog Close
	// collects from them (see frontier.go).
	migMu     sync.Mutex
	migrating map[string]struct{}
	handoffs  []Handoff
}

// top returns the current topology. The pointer is immutable; callers may
// index its maps freely without further synchronization.
func (s *Server) top() *topology { return s.topo.Load() }

// node returns a backend's record. It is nil for a node the topology does
// not hold — in particular one an admin add has registered with the scheduler
// and is about to publish.
func (s *Server) node(id core.NodeID) *nodeEntry { return s.top().nodes[id] }

// UnhealthyAfter is the default consecutive-failure threshold that trips a
// backend's breaker (Config.Breaker.Threshold overrides it).
const UnhealthyAfter = 3

// defaultBackendCapacity is the per-second capacity assumed for a backend
// that declares none: one CPU, one disk arm, 100 Mbit of network.
var defaultBackendCapacity = qos.Vector{CPUTime: time.Second, DiskTime: time.Second, NetBytes: 12_500_000}

// nodeAcct is one backend's accounting-poll state.
type nodeAcct struct {
	mu sync.Mutex
	// lastSeen holds the backend's previous cumulative report, so usage
	// deltas survive lost polls.
	lastSeen core.UsageReport
	// polling marks a poll currently in flight, so a dead node
	// slow-failing at DialTimeout accumulates one blocked probe, not one
	// per accounting cycle.
	polling bool
	// deltaScratch and spareReport recycle the accounting maps: each poll
	// decodes into the map retired from lastSeen on the previous cycle and
	// diffs into the scratch map, so steady-state polling allocates only
	// what the JSON unmarshal itself needs. The polling slot serializes
	// polls per node, making the reuse safe.
	deltaScratch map[qos.SubscriberID]core.SubscriberUsage
	spareReport  map[qos.SubscriberID]core.SubscriberUsage
}

// The dispatch handshake. A request the scheduler holds in a queue is both a
// queue entry, which a tick, an admin delete or Close's migration sweep may
// take out of the scheduler, and a handler goroutine waiting for the verdict.
// The request's record (pendingConn) settles between them with one word and
// one channel, under one rule:
//
//	whoever moves a record out of pcWaiting on its handler's behalf sends
//	exactly one value on node, and the handler receives exactly one value
//	before it refills or releases the record.
//
// So node is empty whenever a record is waiting or idle, a decision is either
// delivered to the handler or its charge reclaimed — never both, never neither
// — and a handler that gives up (abandon) either wins the word itself, and
// then nothing will be sent, or takes the one value it is owed. The three
// withdrawers are deliver (a tick's decision: pcDispatched, sends the node),
// refuseOrphans (an admin delete: pcAbandoned, sends a sentinel) and handOff
// (Close's migration sweep: pcHandedOff, sends a sentinel).
//
// A record is refilled for each request its connection carries, so the word
// holds the request id beside the state (id<<2 | state) and every party claims
// from (its own request's id, pcWaiting): a withdrawer still holding request A
// after its handler gave A up cannot claim the record once it has moved on to
// request B, and until its claim succeeds it reads nothing else of the record.
const (
	pcWaiting    uint64 = iota // submitted; the handler waits, or is about to, on node
	pcDispatched               // decided: on arrival by the handler itself, else by deliver
	pcAbandoned                // given up by the handler, or withdrawn by an admin delete; never relayed
	pcHandedOff                // withdrawn at Close for a migrating group; redispatchable elsewhere
)

// pendingConn is a connection's request record, part of its wire: the payload
// the scheduler carries for the request the connection is serving, and what
// relay reads. The handler fills everything but w and node anew for each
// request, then arms the record; nobody else writes a field.
type pendingConn struct {
	// w is the wire the record is part of: w.conn is the client and w.req the
	// request to relay. The handler owns both; the migration sweep reads w.req
	// between its claim and its send, when the handler can only be waiting.
	w *wire
	// node carries the one value the handshake rule speaks of: the chosen node
	// from deliver, a sentinel nobody reads from the other two withdrawers.
	node chan core.NodeID
	// state is the handshake word, id<<2 | pc… state.
	state atomic.Uint64
	// id is the scheduler request ID, the key for cancel/release.
	id  uint64
	sub qos.SubscriberID
	// ent is the subscriber's record: its group is the fencing unit.
	ent *subEntry
	// start is when the request was classified; end-to-end latency for the
	// per-subscriber histogram measures from here to the response write.
	start time.Time
	// trace is the sampled lifecycle trace, nil for unsampled requests
	// (every Trace method is nil-safe).
	trace *telemetry.Trace
	// tid is the tier-wide trace identity minted at classify time and
	// injected into the relayed request's X-Gage-Trace header; every
	// request carries one even when its lifecycle trace is unsampled.
	tid obs.TraceID
}

// arm puts the filled record into pcWaiting — before Submit: once the
// scheduler holds the request a withdrawer may claim it.
func (pc *pendingConn) arm() { pc.state.Store(pc.id<<2 | pcWaiting) }

// claim moves the record from (id, pcWaiting) to (id, to). It fails when the
// request has left pcWaiting and when the record has moved on to another.
func (pc *pendingConn) claim(id, to uint64) bool {
	return pc.state.CompareAndSwap(id<<2|pcWaiting, id<<2|to)
}

// status is the state the record's current request is in.
func (pc *pendingConn) status() uint64 { return pc.state.Load() & 3 }

// New builds a dispatcher.
func New(cfg Config) (*Server, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("dispatch: at least one backend required")
	}
	if cfg.AcctCycle <= 0 {
		cfg.AcctCycle = 100 * time.Millisecond
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 30 * time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.ClientIdleTimeout <= 0 {
		cfg.ClientIdleTimeout = 60 * time.Second
	}
	if cfg.BackendTimeout <= 0 {
		cfg.BackendTimeout = 60 * time.Second
	}
	if cfg.Breaker.Threshold <= 0 {
		cfg.Breaker.Threshold = UnhealthyAfter
	}
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	if cfg.Dial == nil {
		cfg.Dial = net.DialTimeout
	}
	// The core scheduler accepts an empty directory (a recovering front end
	// starts that way), but a dispatcher configured with no subscribers can
	// never classify anything — reject it here.
	if len(cfg.Subscribers) == 0 {
		return nil, errors.New("dispatch: at least one subscriber required")
	}
	nodeCfgs := make([]core.NodeConfig, 0, len(cfg.Backends))
	nodes := make(map[core.NodeID]*nodeEntry, len(cfg.Backends))
	for _, b := range cfg.Backends {
		cap := b.Capacity
		if cap.IsZero() {
			cap = defaultBackendCapacity
		}
		nodeCfgs = append(nodeCfgs, core.NodeConfig{ID: b.ID, Capacity: cap})
		nodes[b.ID] = &nodeEntry{id: b.ID, addr: b.Addr, breaker: breaker.New(cfg.Breaker), relayLat: telemetry.NewHistogram()}
	}
	topo, err := (&topology{nodes: nodes}).withSubscribers(cfg.Subscribers)
	if err != nil {
		return nil, err
	}
	sched, err := core.New(topo.dir, nodeCfgs, cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	var bus *obs.Bus
	if cfg.EventRingSize > 0 || cfg.EventLog != nil {
		bus = obs.NewBus(obs.BusConfig{
			RingSize: cfg.EventRingSize,
			Spill:    cfg.EventLog,
			RDN:      cfg.RDN,
		})
	}
	var rec *flightrec.Recorder
	var auditor *flightrec.Auditor
	if cfg.CycleRingSize > 0 || cfg.CycleLog != nil {
		rec = flightrec.NewRecorder(flightrec.Config{
			RingSize: cfg.CycleRingSize,
			Spill:    cfg.CycleLog,
		})
		rec.SetRDN(cfg.RDN)
		rec.SetBus(bus)
		sched.SetRecorder(rec)
		window := cfg.ConformanceWindow
		if window <= 0 {
			window = DefaultConformanceWindow
		}
		auditor = flightrec.NewAuditor(rec, flightrec.AuditorConfig{
			Window:           window,
			ExemplarsPerSpan: cfg.ExemplarsPerSpan,
		})
		auditor.SetBus(bus)
	}
	srv := &Server{
		cfg:        cfg,
		sched:      sched,
		logger:     cfg.Logger,
		stopCh:     make(chan struct{}),
		drainCh:    make(chan struct{}),
		conns:      make(map[net.Conn]bool),
		beConns:    make(map[net.Conn]struct{}),
		idleExpiry: backendIdleExpiry,
		tickLate:   telemetry.NewHistogram(),
		admission:  newAdmission(cfg.MaxConns, cfg.Subscribers, admissionShards),
		tracer: telemetry.NewTracer(telemetry.TracerConfig{
			SampleEvery: cfg.TraceSampleEvery,
			Buffer:      cfg.TraceBuffer,
		}),
		bus:       bus,
		rec:       rec,
		auditor:   auditor,
		migrating: make(map[string]struct{}),
	}
	srv.tracer.SetBus(bus)
	srv.topo.Store(topo)
	return srv, nil
}

// Scheduler exposes the core scheduler for inspection.
func (s *Server) Scheduler() *core.Scheduler { return s.sched }

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:     s.accepted.Load(),
		Served:       s.served.Load(),
		Rejected:     s.rejected.Load(),
		Unclassified: s.unclassified.Load(),
		Errors:       s.errs.Load(),
		Retried:      s.retried.Load(),
		Abandoned:    s.abandoned.Load(),
		ShedConns:    s.shedConns.Load(),
		Shed:         s.shedReqs.Load(),
		NotOwned:     s.notOwned.Load(),
		Fenced:       s.fenced.Load(),
		HandedOff:    s.handedOff.Load(),

		DispatchedOnArrival: s.atArrival.Load(),
		DispatchedAtTick:    s.atTick.Load(),
	}
}

// Serve runs the dispatcher on the listener until Close. It starts the
// scheduling ticker and the accounting poller.
func (s *Server) Serve(ln net.Listener) error {
	if err := s.bind(&s.ln, ln); err != nil {
		return err
	}
	s.loopWG.Add(2)
	go s.tickLoop()
	go s.acctLoop()
	return s.accept(ln, false)
}

// bind records a listener for Close, refusing once Close has run.
func (s *Server) bind(slot *net.Listener, ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("dispatch: server closed")
	}
	*slot = ln
	return nil
}

// accept hands each connection of the client listener, or of the private
// control-plane one (admin), to a handler goroutine until Close.
func (s *Server) accept(ln net.Listener, admin bool) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.drainCh:
				return nil
			default:
				return fmt.Errorf("dispatch: accept: %w", err)
			}
		}
		s.connWG.Add(1)
		if s.trackConn(conn, admin) {
			// A go of a stored func() allocates no closure, as one of a method
			// call with arguments would for every connection.
			w := getWire(conn)
			w.srv, w.conn, w.admin = s, conn, admin
			go w.run()
			continue
		}
		// Past MaxConns: shed fast. The 503 is written off the accept path
		// so a slow client cannot stall new accepts.
		s.shedConns.Add(1)
		go func() {
			defer s.connWG.Done()
			s.respondError(conn, 503)
			conn.Close()
		}()
	}
}

// trackConn registers an accepted connection for Close's deadline zap and
// force-close sweeps. A client connection is counted (Stats.Accepted) and
// refused past MaxConns. A control-plane connection never is: MaxConns bounds
// subscriber traffic, and a saturated data plane must not lock the operator
// out of the very surface that can shed it.
func (s *Server) trackConn(conn net.Conn, admin bool) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if !admin {
		s.accepted.Add(1)
		if s.cfg.MaxConns > 0 && s.clients >= s.cfg.MaxConns {
			return false
		}
		s.clients++
	}
	s.conns[conn] = admin
	return true
}

func (s *Server) untrackConn(conn net.Conn) {
	s.connMu.Lock()
	if !s.conns[conn] {
		s.clients--
	}
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// Close stops the dispatcher gracefully: it stops accepting, lets in-flight
// requests finish for up to DrainTimeout (the scheduling and accounting
// loops keep running through the drain so queued requests still dispatch),
// then aborts whatever remains and waits for every goroutine.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.drainCh)
	ln := s.ln
	adminLn := s.adminLn
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	if adminLn != nil {
		_ = adminLn.Close()
	}
	// Withdraw still-queued requests of migrating partitions before the
	// drain: letting them dispatch here would splice them from a deposed
	// owner (the fence would refuse each one the hard way), and counting
	// them shed would lose them — the partition's new owner redispatches
	// them instead (see SetMigrating/Handoffs).
	s.handoffMigrating()
	// Nudge idle keep-alive readers: expiring the read deadline unblocks
	// handlers parked in ReadRequest without disturbing in-flight response
	// writes.
	s.connMu.Lock()
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
	}

	// Drain is over: abort queue waits and retry backoffs, cut hung client
	// and backend sockets, and stop the loops.
	close(s.stopCh)
	s.connMu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.connMu.Unlock()
	s.beMu.Lock()
	for c := range s.beConns {
		_ = c.Close()
	}
	s.beMu.Unlock()
	<-done
	s.loopWG.Wait()
	return err
}

// trackBackend registers a freshly dialled backend connection for the
// shutdown sweep; closeBackend forgets it. If the abort already happened the
// connection is cut immediately so the caller's exchange fails fast instead
// of waiting out BackendTimeout.
func (s *Server) trackBackend(c net.Conn) {
	s.beMu.Lock()
	defer s.beMu.Unlock()
	select {
	case <-s.stopCh:
		_ = c.Close()
	default:
		s.beConns[c] = struct{}{}
	}
}

// closeBackend closes a backend connection and drops it from the shutdown
// sweep's set.
func (s *Server) closeBackend(c net.Conn) {
	s.beMu.Lock()
	delete(s.beConns, c)
	s.beMu.Unlock()
	_ = c.Close()
}

// tickLoop runs the scheduling cycle against wall time: a ticker wakes it,
// the monotonic clock says how many cycles are due.
func (s *Server) tickLoop() {
	defer s.loopWG.Done()
	start := time.Now()
	ticker := time.NewTicker(s.sched.Cycle())
	defer ticker.Stop()
	s.runTicks(ticker.C, func() time.Duration { return time.Since(start) })
}

// runTicks runs, on each wake, every scheduling cycle that has come due on
// the clock (time since the loop started) and not yet been run. A wake only
// says that time has passed, the clock says how much: a ticker holds one
// tick, so counting wakes would let a pass that overran its cycle, or a
// process that was descheduled, cost every subscriber that many cycles of
// credit for good — and both Tick's reservation round and Submit gate on
// that credit. The cycles owed are run back to back, each with its deliver
// pass, at most a credit window's worth: past that the balance clamp would
// discard the credit anyway. Every cycle not run at its own time is counted
// missed, and how far past due the oldest one was is recorded as the wake's
// lateness.
func (s *Server) runTicks(wake <-chan time.Time, since func() time.Duration) {
	cycle := s.sched.Cycle()
	burst := max(int64(s.sched.CreditWindow()/cycle), 1)
	var run int64 // cycles accounted for, run or discarded
	for {
		select {
		case <-s.stopCh:
			return
		case <-wake:
		}
		elapsed := since()
		owed := int64(elapsed/cycle) - run
		if owed <= 0 {
			continue // woken early, or by a tick the last catch-up covered
		}
		s.tickLate.Record(elapsed - time.Duration(run+1)*cycle)
		s.tickMissed.Add(uint64(owed - 1))
		run += owed
		for n := min(owed, burst); n > 0; n-- {
			for _, d := range s.sched.Tick() {
				s.deliver(d)
			}
		}
	}
}

// deliver hands one dispatch decision to its waiting connection goroutine —
// unless that goroutine already abandoned the request (wait timeout, client
// hang-up, shutdown). An abandoned dispatch is never relayed, so the backend
// will never complete it; its charge must be reclaimed here or it leaks from
// the node's capacity forever.
func (s *Server) deliver(d core.Dispatch) {
	pc, ok := d.Req.Payload.(*pendingConn)
	if !ok {
		return
	}
	if pc.claim(d.Req.ID, pcDispatched) {
		s.atTick.Add(1)
		pc.node <- d.Node
	} else {
		// The record may be serving another request by now: the decision says
		// whose charge this is, the record no longer does.
		s.sched.ReleaseDispatch(d.Req.Subscriber, d.Node, d.Req.ID)
	}
}

// acctLoop polls every backend for its accounting report each cycle. Polls
// run concurrently, one goroutine per backend, each bounded by DialTimeout:
// a dead or hung backend costs itself its deadline but never delays the
// other nodes' feedback — sequential polling would stretch every node's
// accounting cycle by DialTimeout per dead peer, exactly the feedback lag
// Figure 3 shows destabilizes the guarantee. A node whose previous poll is
// still in flight is skipped this cycle rather than probed again. Unlike
// tickLoop this loop owes no catch-up for a wake it missed: the reports are
// cumulative and diffed against the last one seen, so a dropped poll delays
// the feedback and loses none of it.
func (s *Server) acctLoop() {
	defer s.loopWG.Done()
	ticker := time.NewTicker(s.cfg.AcctCycle)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-ticker.C:
			// One topology for the whole cycle: a node added or retired
			// mid-cycle joins the rotation on the next tick.
			now := time.Now()
			for _, n := range s.top().nodes {
				// Advance breaker time first: cooldowns elapse and slow-start
				// ramps climb one step per accounting cycle.
				if n.breaker.Tick(now) {
					s.logger.Printf("dispatch: node %d breaker %v", n.id, n.breaker.State())
				}
				s.applyWeight(n)
				s.reapIdle(n, now.Add(-s.idleExpiry))
				n.acct.mu.Lock()
				busy := n.acct.polling
				n.acct.polling = true
				n.acct.mu.Unlock()
				if !busy {
					s.loopWG.Add(1)
					go s.pollOne(n)
				}
			}
		}
	}
}

// pollOne fetches one backend's report and folds the usage delta into the
// scheduler. It owns the node's polling slot for its duration.
func (s *Server) pollOne(n *nodeEntry) {
	defer s.loopWG.Done()
	na := &n.acct
	defer func() {
		na.mu.Lock()
		na.polling = false
		na.mu.Unlock()
	}()
	na.mu.Lock()
	reuse := na.spareReport
	na.spareReport = nil
	na.mu.Unlock()
	cum, err := s.pollReport(n, reuse)
	if err != nil {
		s.logger.Printf("dispatch: poll %v: %v", n.addr, err)
		s.noteBreaker(n, breaker.Poll, false)
		return
	}
	s.noteBreaker(n, breaker.Poll, true)
	na.mu.Lock()
	prev := na.lastSeen
	delta := core.DiffUsageReports(cum, prev, na.deltaScratch)
	na.deltaScratch = delta.BySubscriber
	na.lastSeen = cum
	// The displaced snapshot's map becomes the next poll's decode target.
	na.spareReport = prev.BySubscriber
	na.mu.Unlock()
	if err := s.sched.ReportUsage(delta); err != nil {
		s.logger.Printf("dispatch: report usage: %v", err)
	}
}

// pollReport fetches one backend's usage report, decoding the subscriber
// usage into the caller's reused map (nil allocates fresh).
func (s *Server) pollReport(n *nodeEntry, reuse map[qos.SubscriberID]core.SubscriberUsage) (core.UsageReport, error) {
	conn, err := s.cfg.Dial("tcp", n.addr, s.cfg.DialTimeout)
	if err != nil {
		return core.UsageReport{}, err
	}
	defer conn.Close()
	// A hung backend must not wedge the accounting loop.
	_ = conn.SetDeadline(time.Now().Add(s.cfg.DialTimeout))
	req := &httpwire.Request{Method: "GET", Target: backend.ReportPath, Proto: "HTTP/1.0"}
	if err := req.Write(conn); err != nil {
		return core.UsageReport{}, err
	}
	w := getWire(conn)
	resp, err := httpwire.ReadResponse(w.br)
	putWire(w)
	if err != nil {
		return core.UsageReport{}, err
	}
	if resp.StatusCode != 200 {
		return core.UsageReport{}, fmt.Errorf("report status %d", resp.StatusCode)
	}
	rep, err := backend.DecodeReportInto(resp.Body, reuse)
	if err != nil {
		return core.UsageReport{}, err
	}
	rep.Node = n.id // trust our own pool identity, not the backend's claim
	return rep, nil
}

var reqIDs atomic.Uint64

// timerPool recycles the queue-wait and retry-backoff timers; a timer goes
// back stopped and drained, so a pooled timer is never live.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer stops the timer, drains its channel if it fired unreceived, and
// returns it to the pool.
func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// wire is everything a connection owns for as long as it is served, made once
// and pooled: the buffered reader, the messages parsed from it, the scratch
// every write on the request path is composed in, the request record with the
// channel its verdict arrives on, and the handler func accept starts. A client
// connection uses all of it — its requests are served one at a time, so one
// record does for them all; the backend leg of a relay and the accounting
// poll use br and resp alone. A one-request connection inherits all this from
// its predecessor, head buffers included, and costs the dispatcher nothing.
type wire struct {
	br   *bufio.Reader
	req  httpwire.Request
	resp httpwire.Response
	buf  []byte

	// srv, conn and admin (the control-plane listener's connection) are the
	// handler's arguments, set by accept. run is w.handle, bound once.
	srv   *Server
	conn  net.Conn
	admin bool
	run   func()
	// pc is the request record (see the dispatch handshake).
	pc pendingConn
}

// maxScratch is the largest write scratch a pooled wire keeps; a relayed
// request body can grow one far past what the next owner will need.
const maxScratch = 16 << 10

// wirePool has no New: newWire binds handle, which releases to this pool.
var wirePool sync.Pool

func newWire() *wire {
	w := &wire{br: bufio.NewReaderSize(nil, 4096)}
	w.run = w.handle
	w.pc.w = w
	w.pc.node = make(chan core.NodeID, 1)
	return w
}

func getWire(r io.Reader) *wire {
	w, _ := wirePool.Get().(*wire)
	if w == nil {
		w = newWire()
	}
	w.br.Reset(r)
	return w
}

// putWireCheck, set by this package's tests, sees every wire as it goes back
// to the pool.
var putWireCheck func(*wire)

// putWire releases w. What it holds is the next owner's to overwrite, so
// nothing may still be reading it. An idle wire keeps what is worth inheriting
// — buffers (the messages' head buffers among them, which Reset lets go like
// the scratch once one oversized head has grown them), header maps, the
// record's channel and its handshake word, whose stale request id is what
// keeps a late withdrawer out — and no reference to what it served:
// connection, server, heads, subscriber record or trace.
func putWire(w *wire) {
	w.br.Reset(nil)
	w.req.Reset()
	w.resp.Reset()
	if cap(w.buf) > maxScratch {
		w.buf = nil
	}
	w.srv, w.conn, w.admin = nil, nil, false
	w.pc.sub, w.pc.ent, w.pc.trace = "", nil, nil
	if putWireCheck != nil {
		putWireCheck(w)
	}
	wirePool.Put(w)
}

// readRoutes names the read-only operational endpoints; both listeners
// answer them.
var readRoutes = map[string]func(*Server, net.Conn){
	StatsPath:   (*Server).serveStats,
	MetricsPath: (*Server).serveMetrics,
	TracePath:   (*Server).serveTrace,
	CyclesPath:  (*Server).serveCycles,
	EventsPath:  (*Server).serveEvents,
}

// handle serves the wire's connection, of the client listener or of the
// control-plane one (w.admin), and releases the wire. HTTP/1.1 connections are
// persistent (P-HTTP): each request on a client connection is classified,
// queued and scheduled independently — consecutive requests may be relayed to
// different back ends, just as the paper's splicing handles one request per
// spliced connection.
// The mutation surface under AdminPrefix answers only on the control-plane
// listener (gaged's adminListen knob): a client that can reach the data-plane
// port must never be able to sign, resize, or retire subscribers. That
// listener in turn relays nothing, so client traffic cannot be proxied
// through it.
func (w *wire) handle() {
	s, conn, admin := w.srv, w.conn, w.admin
	defer s.connWG.Done()
	defer s.untrackConn(conn)
	defer conn.Close()
	defer putWire(w)
	for {
		// A draining server reads no further requests, even on persistent
		// connections — a mutation mid-shutdown would race the teardown.
		select {
		case <-s.drainCh:
			return
		default:
		}
		// Stuck clients must not pin handler goroutines forever; the
		// deadline renews per request on persistent connections.
		_ = conn.SetDeadline(time.Now().Add(s.cfg.ClientIdleTimeout))
		if err := w.req.Read(w.br); err != nil {
			select {
			case <-s.drainCh:
				// Close zapped the read deadline to unpark this idle
				// keep-alive connection; quit silently.
				return
			default:
			}
			// A head past httpwire.MaxHeadBytes and a Transfer-Encoding the
			// relay cannot frame are refused like any other malformed head.
			if err != io.EOF {
				s.respondError(conn, 400)
			}
			return
		}
		// The client's own wish, read before the relay rewrites Connection
		// for the backend leg.
		keep := w.req.KeepAlive()
		path := w.req.Path()
		serve, isRead := readRoutes[path]
		adminPath := strings.HasPrefix(path, AdminPrefix)
		usable := true
		switch {
		case isRead:
			serve(s, conn)
		case admin && adminPath:
			s.serveAdmin(conn, &w.req)
		case admin || adminPath:
			s.respondError(conn, 404)
		default:
			usable = s.serveOne(w)
		}
		if !usable || !keep {
			return
		}
	}
}

// serveOne classifies, schedules and relays the client request parsed into
// w.req; it reports whether the connection is still usable for another
// request.
func (s *Server) serveOne(w *wire) bool {
	conn, req := w.conn, &w.req
	// The request ID doubles as the trace-sampling key, so it is drawn
	// before classification: every client request — even one that never
	// reaches the scheduler — is a sampling candidate.
	id := reqIDs.Add(1)
	start := time.Now()
	tid := obs.Mint(s.cfg.RDN, id)
	tr := s.tracer.Sample(id)
	tr.SetID(tid)
	t := s.top()
	sub, ok := t.classifier.Classify(req.Host, req.Path())
	if !ok {
		tr.Add(telemetry.StageClassify, 0, "")
		tr.Settle(telemetry.OutcomeUnclassified)
		s.unclassified.Add(1)
		s.respondError(conn, 404)
		return true
	}
	tr.SetSubscriber(string(sub))
	tr.Add(telemetry.StageClassify, 0, string(sub))
	if tr != nil && s.auditor != nil {
		// Feed the conformance auditor's exemplar reservoir once this
		// sampled request settles, whichever path it takes — a violation
		// span opening for sub snapshots the last few IDs.
		defer s.auditor.NoteExemplar(sub, tid)
	}
	ent := t.subs[sub]
	if s.cfg.Owns != nil && !s.cfg.Owns(ent.group) {
		// Partition admission: this group is homed on another front end.
		// Queuing it here would grow scheduler state the owner cannot see;
		// refuse instead, bounding a takeover's blast radius to the groups
		// that actually moved.
		tr.Settle(telemetry.OutcomeNotOwned)
		s.notOwned.Add(1)
		s.respondError(conn, 503)
		return true
	}
	if !s.admission.admit(sub) {
		// Admission shed: this subscriber is past its guaranteed in-flight
		// quota and the only free slots are idle reserved ones. Drop the
		// connection too — under saturation a persistent connection must
		// not squat an accept slot while being refused work.
		tr.Settle(telemetry.OutcomeShed)
		s.shedReqs.Add(1)
		s.respondError(conn, 503)
		return false
	}
	defer s.admission.release(sub)
	pc := &w.pc
	pc.id, pc.sub, pc.ent, pc.start, pc.trace, pc.tid = id, sub, ent, start, tr, tid
	pc.arm()
	d, now, err := s.sched.Submit(core.Request{
		ID:         id,
		Subscriber: sub,
		Payload:    pc,
	})
	if err != nil {
		tr.Settle(telemetry.OutcomeRejected)
		s.rejected.Add(1)
		s.respondError(conn, 503)
		return true
	}
	tr.Add(telemetry.StageQueue, 0, "")
	if now {
		// The subscriber's reservation covered the request on arrival: the
		// decision is already made and charged, and it was never in a queue,
		// so no tick, admin delete or hand-off sweep holds it — the state
		// word is ours to set and there is nothing to wait for.
		pc.state.Store(id<<2 | pcDispatched)
		s.atArrival.Add(1)
		tr.Add(telemetry.StageDispatch, int64(d.Node), "")
		return s.relay(pc, d.Node)
	}
	timer := getTimer(s.cfg.QueueTimeout)
	defer putTimer(timer)
	select {
	case node := <-pc.node:
		// The one value this request is owed: the record is ours again.
		switch pc.status() {
		case pcAbandoned:
			// An admin delete removed this request's subscriber while it was
			// queued; its scheduler state is already gone. Refuse, never relay.
			tr.Settle(telemetry.OutcomeRejected)
			s.rejected.Add(1)
			s.respondError(conn, 503)
			return true
		case pcHandedOff:
			// Close withdrew this request because its group migrated; the
			// new owner redispatches it (see Handoffs). The client retries
			// there — this is not a shed.
			tr.Settle(telemetry.OutcomeHandedOff)
			s.respondError(conn, 503)
			return false
		}
		tr.Add(telemetry.StageDispatch, int64(node), "")
		return s.relay(pc, node)
	case <-s.stopCh:
		s.abandon(pc)
		tr.Settle(telemetry.OutcomeDrainAbort)
		s.respondError(conn, 503)
		return false
	case <-timer.C:
		// The scheduler never dispatched us (sustained overload). Withdraw
		// the request before moving on: once we answer 503 and keep reading
		// the connection, a late dispatch must never relay onto it.
		s.abandon(pc)
		tr.Settle(telemetry.OutcomeQueueTimeout)
		s.rejected.Add(1)
		s.respondError(conn, 503)
		return true
	}
}

// abandon gives up a submitted request that will never be relayed, and
// returns with the record the handler's again. If the handler wins the word,
// a request still in its FIFO is removed here and one the scheduler has popped
// meets deliver's failed claim, which releases the charge instead. If a
// withdrawer won, the handler takes the one value it is owed: a tick's
// decision is undone by releasing its charge, so relay can never run against
// a connection that has moved on; after an admin delete or the migration
// sweep there is no charge, and it is not an abandonment.
func (s *Server) abandon(pc *pendingConn) {
	if pc.claim(pc.id, pcAbandoned) {
		s.abandoned.Add(1)
		s.sched.CancelQueued(pc.sub, pc.id)
		return
	}
	node := <-pc.node
	if pc.status() == pcDispatched {
		s.abandoned.Add(1)
		s.sched.ReleaseDispatch(pc.sub, node, pc.id)
	}
}

// relay forwards the request to the chosen backend and the backend's reply
// to the client — the application-level splice. A backend that cannot be
// sent the request (its breaker refuses the relay, the dial fails, or the
// request write breaks off) gets one retry: the charge is re-dispatched
// through the scheduler to an alternate node after a short backoff, so a
// node dying between dispatch and dial degrades to extra latency instead of
// a 502. A stale pooled connection is not such a failure (see exchange). The
// backoff and the whole path select on stopCh so Close never blocks on a
// sleeping retry. Until exchange hands back a reply the client has seen
// nothing, so every failure up to there is a clean 502; from there forward
// takes over. It reports whether the client connection remains usable.
func (s *Server) relay(pc *pendingConn, node core.NodeID) bool {
	tr, conn := pc.trace, pc.w.conn
	if s.cfg.Fence != nil && !s.cfg.Fence(pc.ent.group) {
		// Deposed between dispatch and relay: the group's lease epoch moved
		// on, so this decision must not reach a backend — the new owner is
		// already scheduling the partition against its own capacity share.
		// Reclaim the charge and refuse.
		s.sched.ReleaseDispatch(pc.sub, node, pc.id)
		s.fenced.Add(1)
		s.rec.Annotate(flightrec.TierEvent{Kind: "fence", Group: pc.ent.group})
		tr.Settle(telemetry.OutcomeFenced)
		s.respondError(conn, 503)
		return true
	}
	tr.Add(telemetry.StageRelay, int64(node), "")
	attempt := time.Now()
	// The node's record is resolved here, once, for everything the relay does
	// with the node.
	n := s.node(node)
	rep, sent, err := s.exchange(pc, n)
	if err != nil && !sent {
		alt, ok := s.sched.Redispatch(pc.sub, pc.id, node)
		if !ok {
			// No alternate has room; the charge is already released.
			tr.Settle(telemetry.OutcomeError)
			s.errs.Add(1)
			s.respondError(conn, 502)
			return true
		}
		s.retried.Add(1)
		// The retry hop is marked whether the first attempt failed at dial
		// time or after a partial request write — the settled trace must
		// name every node the request was aimed at.
		tr.Add(telemetry.StageRetry, int64(alt), "relay failed, redispatched")
		// A pooled timer, stopped and drained on the abort path: time.After
		// here stranded a live timer until expiry for every shutdown-aborted
		// retry, pinning its channel and callback for the full backoff.
		bt := getTimer(s.cfg.RetryBackoff)
		select {
		case <-bt.C:
			putTimer(bt)
		case <-s.stopCh:
			putTimer(bt)
			// Shutdown abort: reclaim the alternate's charge and give up.
			s.sched.ReleaseDispatch(pc.sub, alt, pc.id)
			tr.Settle(telemetry.OutcomeDrainAbort)
			s.respondError(conn, 503)
			return false
		}
		// The relay latency histogram measures the exchange against the
		// node that actually served; restart the clock for the alternate.
		attempt = time.Now()
		n = s.node(alt)
		rep, sent, err = s.exchange(pc, n)
		if err != nil && !sent {
			// The retry hop is already in the trace; exactly one terminal
			// outcome settles it here.
			s.sched.ReleaseDispatch(pc.sub, alt, pc.id)
			tr.Settle(telemetry.OutcomeError)
			s.errs.Add(1)
			s.respondError(conn, 502)
			return true
		}
	}
	if err != nil {
		tr.Settle(telemetry.OutcomeError)
		s.errs.Add(1)
		s.respondError(conn, 502)
		return true
	}
	outcome := s.forward(pc, n, rep)
	tr.Settle(outcome)
	if outcome != telemetry.OutcomeServed {
		// The client may hold part of the response, so there is nothing
		// left to say to it — a second status line would be read as body.
		// Its connection is torn instead.
		s.errs.Add(1)
		return false
	}
	// Both latencies end where the client's wait does: with the last body
	// byte forwarded.
	n.relayLat.Record(time.Since(attempt))
	s.served.Add(1)
	pc.ent.reqLat.Record(time.Since(pc.start))
	return true
}

// errBreakerRefused marks a relay skipped because the target's breaker is
// open or its half-open probe slot is already claimed.
var errBreakerRefused = errors.New("dispatch: breaker refused relay")

// noteBreaker feeds one poll/relay outcome into a node's breaker and keeps
// the scheduler's node weight in lockstep with the breaker's verdict — the
// single place health events change what the scheduler may dispatch.
func (s *Server) noteBreaker(n *nodeEntry, src breaker.Source, success bool) {
	b := n.breaker
	var changed bool
	if success {
		changed = b.Success(src, time.Now())
	} else {
		changed = b.Failure(src, time.Now())
	}
	if changed {
		s.logger.Printf("dispatch: node %d breaker %v after %v %s", n.id, b.State(), src,
			map[bool]string{true: "success", false: "failure"}[success])
		s.bus.Publish(obs.Event{Kind: obs.KindBreaker, Node: int(n.id),
			Stage: b.State().String(), Detail: src.String()})
		if !success {
			// The breaker just opened: whatever broke the node has likely
			// broken its idle connections too.
			s.reapIdle(n, time.Now())
		}
	}
	s.applyWeight(n)
}

// applyWeight pushes a node's effective weight into the scheduler.
func (s *Server) applyWeight(n *nodeEntry) {
	if err := s.sched.SetNodeWeight(n.id, n.snapshot().Weight); err != nil {
		s.logger.Printf("dispatch: set node %d weight: %v", n.id, err)
	}
}

// snapshot is the breaker's view of the node with the weight made the
// effective one: a draining node is pinned at zero whatever its breaker's
// health — otherwise the accounting loop's per-cycle re-apply would ramp a
// drained node straight back into rotation.
func (n *nodeEntry) snapshot() breaker.Snapshot {
	snap := n.breaker.Snapshot()
	if n.draining.Load() {
		snap.Weight = 0
	}
	return snap
}

// BreakerSnapshot exposes one node's breaker view (tests).
func (s *Server) BreakerSnapshot(id core.NodeID) (breaker.Snapshot, bool) {
	n := s.node(id)
	if n == nil {
		return breaker.Snapshot{}, false
	}
	return n.breaker.Snapshot(), true
}

// StatsPath serves the dispatcher's operational state as JSON.
const StatsPath = "/_gage/stats"

// statsJSON is the wire form of the stats endpoint.
type statsJSON struct {
	Accepted     uint64                    `json:"accepted"`
	Served       uint64                    `json:"served"`
	Rejected     uint64                    `json:"rejected"`
	Unclassified uint64                    `json:"unclassified"`
	Errors       uint64                    `json:"errors"`
	Retried      uint64                    `json:"retried"`
	Abandoned    uint64                    `json:"abandoned"`
	ShedConns    uint64                    `json:"shedConns"`
	Shed         uint64                    `json:"shed"`
	Subscribers  map[string]subscriberJSON `json:"subscribers"`
	Nodes        map[string]nodeJSON       `json:"nodes"`

	DispatchedOnArrival uint64 `json:"dispatchedOnArrival"`
	DispatchedAtTick    uint64 `json:"dispatchedAtTick"`
	TickMissed          uint64 `json:"tickMissed"`
}

type subscriberJSON struct {
	ReservationGRPS float64 `json:"reservationGRPS"`
	QueueLen        int     `json:"queueLen"`
	Dropped         uint64  `json:"dropped"`
	PredictedCPU    int64   `json:"predictedCpuNanos"`
	PredictedDisk   int64   `json:"predictedDiskNanos"`
	PredictedNet    int64   `json:"predictedNetBytes"`
	AdmissionQuota  int     `json:"admissionQuota"`
	Inflight        int     `json:"inflight"`
	Shed            uint64  `json:"shed"`
}

type nodeJSON struct {
	Addr            string  `json:"addr"`
	OutstandingCPU  int64   `json:"outstandingCpuNanos"`
	OutstandingDisk int64   `json:"outstandingDiskNanos"`
	OutstandingNet  int64   `json:"outstandingNetBytes"`
	Breaker         string  `json:"breaker"`
	Weight          float64 `json:"weight"`
	PollStreak      int     `json:"pollStreak"`
	RelayStreak     int     `json:"relayStreak"`
	BackendDials    uint64  `json:"backendDials"`
	ConnReuses      uint64  `json:"backendConnReuses"`
}

// serveStats answers the operational-stats endpoint.
func (s *Server) serveStats(conn net.Conn) {
	st := s.Stats()
	t := s.top()
	out := statsJSON{
		Accepted:     st.Accepted,
		Served:       st.Served,
		Rejected:     st.Rejected,
		Unclassified: st.Unclassified,
		Errors:       st.Errors,
		Retried:      st.Retried,
		Abandoned:    st.Abandoned,
		ShedConns:    st.ShedConns,
		Shed:         st.Shed,
		Subscribers:  make(map[string]subscriberJSON, t.dir.Len()),
		Nodes:        make(map[string]nodeJSON, len(t.nodes)),

		DispatchedOnArrival: st.DispatchedOnArrival,
		DispatchedAtTick:    st.DispatchedAtTick,
		TickMissed:          s.tickMissed.Load(),
	}
	for _, id := range t.dir.IDs() {
		sub, err := t.dir.Subscriber(id)
		if err != nil {
			continue
		}
		pred, _ := s.sched.Predicted(id)
		quota, inflight, shed := s.admission.subSnapshot(id)
		out.Subscribers[string(id)] = subscriberJSON{
			ReservationGRPS: float64(sub.Reservation),
			QueueLen:        s.sched.QueueLen(id),
			Dropped:         s.sched.Dropped(id),
			PredictedCPU:    pred.CPUTime.Nanoseconds(),
			PredictedDisk:   pred.DiskTime.Nanoseconds(),
			PredictedNet:    pred.NetBytes,
			AdmissionQuota:  quota,
			Inflight:        inflight,
			Shed:            shed,
		}
	}
	for id, n := range t.nodes {
		outst, _ := s.sched.Outstanding(id)
		snap := n.snapshot()
		out.Nodes[fmt.Sprintf("%d", id)] = nodeJSON{
			Addr:            n.addr,
			OutstandingCPU:  outst.CPUTime.Nanoseconds(),
			OutstandingDisk: outst.DiskTime.Nanoseconds(),
			OutstandingNet:  outst.NetBytes,
			Breaker:         snap.State.String(),
			Weight:          snap.Weight,
			PollStreak:      snap.PollStreak,
			RelayStreak:     snap.RelayStreak,
			BackendDials:    n.pool.dials.Load(),
			ConnReuses:      n.pool.reuses.Load(),
		}
	}
	s.respondJSON(conn, 200, out)
}

// errorHeads holds the wire form of every bodiless error answer the
// dispatcher gives, serialized once. Each carries Content-Length: 0: several
// callers keep the client connection open after a refusal, and a response
// with no stated end would leave an HTTP/1.1 client waiting for the close.
var errorHeads = map[int][]byte{
	400: errorHead(400), 404: errorHead(404), 500: errorHead(500),
	502: errorHead(502), 503: errorHead(503),
}

func errorHead(code int) []byte {
	resp := httpwire.Response{StatusCode: code, Header: map[string]string{"Content-Length": "0"}}
	return append(resp.AppendHead(nil, 0), "\r\n"...)
}

// respond writes an answer with a body: every one the dispatcher composes
// itself goes out here.
func (s *Server) respond(conn net.Conn, code int, contentType string, body []byte) {
	resp := &httpwire.Response{
		StatusCode: code,
		Header:     map[string]string{"Content-Type": contentType},
		Body:       body,
	}
	// The client may already be gone; nothing more to do.
	_ = resp.Write(conn)
}

// respondJSON answers with v as indented JSON.
func (s *Server) respondJSON(conn net.Conn, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		s.respondError(conn, 500)
		return
	}
	s.respond(conn, code, "application/json", body)
}

func (s *Server) respondError(conn net.Conn, code int) {
	head, ok := errorHeads[code]
	if !ok {
		head = errorHead(code)
	}
	// The client may already be gone; nothing more to do.
	_, _ = conn.Write(head)
}
