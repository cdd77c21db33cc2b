package dispatch

// The dispatcher's online admission control plane: REST endpoints that sign,
// resize, and retire subscribers and grow or drain the backend pool against
// the LIVE scheduler — ROADMAP item 4. Every mutation is gated by the
// admitctl feasibility policy (accept a change only if every existing
// guarantee still fits under the enabled pool's generic-request rate),
// applied to the scheduler through its elasticity surface, published to the
// hot paths by a copy-on-write topology swap, reflected into the
// reservation-proportional admission quotas, and annotated onto the flight
// recorder so `gagetrace audit` sees control-plane events inline with the
// cycles they shaped. A rejected request mutates nothing and answers with
// the structured admitctl.Decision naming the wall it hit.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"strconv"
	"strings"
	"time"

	"gage/internal/admitctl"
	"gage/internal/breaker"
	"gage/internal/classify"
	"gage/internal/core"
	"gage/internal/flightrec"
	"gage/internal/httpwire"
	"gage/internal/obs"
	"gage/internal/qos"
	"gage/internal/telemetry"
)

// AdminPrefix roots the control-plane endpoints:
//
//	POST   /_gage/admin/subscribers          sign a subscriber (JSON body)
//	PUT    /_gage/admin/subscribers/{id}     resize its reservation
//	DELETE /_gage/admin/subscribers/{id}     retire it
//	POST   /_gage/admin/nodes/{id}/add       grow the pool (JSON body)
//	POST   /_gage/admin/nodes/{id}/drain     gracefully retire a node
const AdminPrefix = "/_gage/admin/"

// MaxReservationGRPS bounds a single admin-granted reservation; anything
// larger is a fat-fingered request, not a tenant.
const MaxReservationGRPS = 1e9

// subscriberCreateBody is the POST /subscribers wire form.
type subscriberCreateBody struct {
	ID              string   `json:"id"`
	Hosts           []string `json:"hosts"`
	ReservationGRPS float64  `json:"reservationGRPS"`
	QueueLimit      int      `json:"queueLimit"`
	Group           string   `json:"group"`
}

// subscriberResizeBody is the PUT /subscribers/{id} wire form.
type subscriberResizeBody struct {
	ReservationGRPS float64 `json:"reservationGRPS"`
}

// nodeAddBody is the POST /nodes/{id}/add wire form. A zero capacity selects
// the same default vector Config.Backends applies.
type nodeAddBody struct {
	Addr           string  `json:"addr"`
	CPUMillis      int64   `json:"cpuMillisPerSec"`
	DiskMillis     int64   `json:"diskMillisPerSec"`
	NetBytesPerSec int64   `json:"netBytesPerSec"`
	CapacityGRPS   float64 `json:"capacityGRPS"`
	RampFromTop    bool    `json:"rampFromTop"`
}

// nodeDrainBody is the POST /nodes/{id}/drain wire form.
type nodeDrainBody struct {
	// Force drains even when the feasibility check says the remaining pool
	// cannot honor the committed guarantees (emergency scale-in).
	Force bool `json:"force"`
}

// adminResult is the wire form of every admin response, success or refusal:
// the feasibility decision plus operation identity, so an operator's log of
// response bodies replays the control plane's reasoning.
type adminResult struct {
	admitctl.Decision
	Op         string `json:"op"`
	Subscriber string `json:"subscriber,omitempty"`
	// Node is a pointer so node ID 0 — a valid core.NodeID — still
	// serializes on node operations; subscriber operations omit the field.
	Node  *int   `json:"node,omitempty"`
	Error string `json:"error,omitempty"`
	// OutstandingGeneric is the drained node's estimated in-flight load in
	// generic units at drain time; poll /_gage/stats for it to reach zero
	// before retiring the node.
	OutstandingGeneric float64 `json:"outstandingGeneric,omitempty"`
}

// nodeRef boxes a node ID for adminResult.Node, which is a pointer so that
// node 0 survives omitempty.
func nodeRef(id core.NodeID) *int {
	n := int(id)
	return &n
}

// checkReservation validates a wire-form reservation value.
func checkReservation(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return errors.New("reservationGRPS must be a finite number")
	}
	if v < 0 {
		return fmt.Errorf("reservationGRPS must not be negative, got %v", v)
	}
	if v > MaxReservationGRPS {
		return fmt.Errorf("reservationGRPS %v exceeds the %v cap", v, float64(MaxReservationGRPS))
	}
	return nil
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing data —
// an admin request with a typoed key must fail loudly, not silently default.
func strictUnmarshal(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// decodeSubscriberCreate parses and validates a POST /subscribers body.
// Standalone (no Server state) so the fuzz harness can drive it directly.
func decodeSubscriberCreate(body []byte) (qos.Subscriber, error) {
	var b subscriberCreateBody
	if err := strictUnmarshal(body, &b); err != nil {
		return qos.Subscriber{}, err
	}
	if b.ID == "" {
		return qos.Subscriber{}, errors.New("id must be non-empty")
	}
	if len(b.Hosts) == 0 {
		return qos.Subscriber{}, errors.New("at least one host required (nothing would classify to the subscriber)")
	}
	for _, h := range b.Hosts {
		if classify.NormalizeHost(h) == "" {
			return qos.Subscriber{}, fmt.Errorf("host %q normalizes to empty", h)
		}
	}
	if err := checkReservation(b.ReservationGRPS); err != nil {
		return qos.Subscriber{}, err
	}
	if b.QueueLimit < 0 {
		return qos.Subscriber{}, fmt.Errorf("queueLimit must not be negative, got %d", b.QueueLimit)
	}
	sub := qos.Subscriber{
		ID:          qos.SubscriberID(b.ID),
		Hosts:       b.Hosts,
		Reservation: qos.GRPS(b.ReservationGRPS),
		QueueLimit:  b.QueueLimit,
		Group:       b.Group,
	}
	return sub, sub.Validate()
}

// decodeSubscriberResize parses and validates a PUT /subscribers/{id} body.
func decodeSubscriberResize(body []byte) (qos.GRPS, error) {
	var b subscriberResizeBody
	if err := strictUnmarshal(body, &b); err != nil {
		return 0, err
	}
	if err := checkReservation(b.ReservationGRPS); err != nil {
		return 0, err
	}
	return qos.GRPS(b.ReservationGRPS), nil
}

// decodeNodeAdd parses and validates a POST /nodes/{id}/add body. Capacity
// may be given either as an explicit per-resource vector or as a generic
// rate (capacityGRPS, scaled through the generic cost vector); both absent
// selects the default backend capacity.
func decodeNodeAdd(body []byte) (addr string, capacity qos.Vector, rampFromTop bool, err error) {
	var b nodeAddBody
	if err = strictUnmarshal(body, &b); err != nil {
		return "", qos.Vector{}, false, err
	}
	if b.Addr == "" {
		return "", qos.Vector{}, false, errors.New("addr must be non-empty")
	}
	if b.CPUMillis < 0 || b.DiskMillis < 0 || b.NetBytesPerSec < 0 {
		return "", qos.Vector{}, false, errors.New("capacity components must not be negative")
	}
	if math.IsNaN(b.CapacityGRPS) || math.IsInf(b.CapacityGRPS, 0) || b.CapacityGRPS < 0 {
		return "", qos.Vector{}, false, errors.New("capacityGRPS must be a finite non-negative number")
	}
	explicit := b.CPUMillis > 0 || b.DiskMillis > 0 || b.NetBytesPerSec > 0
	switch {
	case explicit && b.CapacityGRPS > 0:
		return "", qos.Vector{}, false, errors.New("give capacityGRPS or an explicit capacity vector, not both")
	case explicit:
		capacity = qos.Vector{
			CPUTime:  time.Duration(b.CPUMillis) * time.Millisecond,
			DiskTime: time.Duration(b.DiskMillis) * time.Millisecond,
			NetBytes: b.NetBytesPerSec,
		}
		if capacity.AnyNegative() || capacity.IsZero() {
			return "", qos.Vector{}, false, errors.New("explicit capacity must be positive")
		}
	case b.CapacityGRPS > 0:
		capacity = qos.GenericCost().Scale(b.CapacityGRPS)
	default:
		capacity = defaultBackendCapacity
	}
	return b.Addr, capacity, b.RampFromTop, nil
}

// decodeNodeDrain parses a POST /nodes/{id}/drain body (empty means no
// force).
func decodeNodeDrain(body []byte) (force bool, err error) {
	if len(bytes.TrimSpace(body)) == 0 {
		return false, nil
	}
	var b nodeDrainBody
	if err := strictUnmarshal(body, &b); err != nil {
		return false, err
	}
	return b.Force, nil
}

// admitCfg builds the feasibility-policy config from the dispatcher config.
func (s *Server) admitCfg() admitctl.Config {
	return admitctl.Config{Headroom: s.cfg.AdmitHeadroom}
}

// publishAdmin mirrors one control-plane decision onto the event bus, so a
// merged event log shows the operator's request next to the cycles and tier
// transitions it caused — or, for a refusal, the wall it hit.
func (s *Server) publishAdmin(res adminResult) {
	code := res.Code
	if code == "" {
		if res.Error != "" {
			code = "error"
		} else {
			code = "accepted"
		}
	}
	ev := obs.Event{Kind: obs.KindAdmin, Sub: res.Subscriber, Detail: res.Op + ":" + code}
	if res.Node != nil {
		ev.Node = *res.Node
	}
	s.bus.Publish(ev)
}

// respondAdmin answers an admin request — accepted, or refused with nothing
// mutated — and records the decision on the event bus: a denied scale-up is
// exactly the kind of context a violation investigation needs.
func (s *Server) respondAdmin(conn net.Conn, code int, res adminResult) {
	s.publishAdmin(res)
	s.respondJSON(conn, code, res)
}

// decisionStatus maps a refused feasibility decision to its HTTP status.
func decisionStatus(d admitctl.Decision) int {
	if d.Code == admitctl.CodeInvalid {
		return 400
	}
	return 409 // infeasible: conflicts with the committed guarantees
}

// serveAdmin routes one control-plane request.
func (s *Server) serveAdmin(conn net.Conn, req *httpwire.Request) {
	rest := strings.Trim(strings.TrimPrefix(req.Path(), AdminPrefix), "/")
	seg := strings.Split(rest, "/")
	switch {
	case len(seg) == 1 && seg[0] == "subscribers" && req.Method == "POST":
		s.adminCreateSubscriber(conn, req.Body)
		return
	case len(seg) == 2 && seg[0] == "subscribers":
		// The id reaches the event bus, the flight recorder and the log, all
		// of which keep it past this request's head.
		id := qos.SubscriberID(strings.Clone(seg[1]))
		switch req.Method {
		case "PUT":
			s.adminResizeSubscriber(conn, id, req.Body)
			return
		case "DELETE":
			s.adminDeleteSubscriber(conn, id)
			return
		}
	case len(seg) == 3 && seg[0] == "nodes" && req.Method == "POST":
		id, err := strconv.ParseInt(seg[1], 10, 32)
		if err != nil || id < 0 {
			s.respondAdmin(conn, 400, adminResult{Op: seg[2], Error: fmt.Sprintf("bad node id %q", seg[1])})
			return
		}
		switch seg[2] {
		case "add":
			s.adminAddNode(conn, core.NodeID(id), req.Body)
			return
		case "drain":
			s.adminDrainNode(conn, core.NodeID(id), req.Body)
			return
		}
	}
	s.respondError(conn, 404)
}

// directorySubs lists a directory's full subscriber definitions in ID order.
func directorySubs(dir *qos.Directory) []qos.Subscriber {
	ids := dir.IDs()
	subs := make([]qos.Subscriber, 0, len(ids))
	for _, id := range ids {
		if sub, err := dir.Subscriber(id); err == nil {
			subs = append(subs, sub)
		}
	}
	return subs
}

// adminCreateSubscriber signs a new subscriber: feasibility gate, scheduler
// registration, directory/classifier rebuild, topology swap, quota
// rebalance, audit annotation — one atomic operation under adminMu.
func (s *Server) adminCreateSubscriber(conn net.Conn, body []byte) {
	sub, err := decodeSubscriberCreate(body)
	if err != nil {
		s.respondAdmin(conn, 400, adminResult{Op: "subscriber-create", Error: err.Error()})
		return
	}
	res := adminResult{Op: "subscriber-create", Subscriber: string(sub.ID)}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	res.Decision = admitctl.Evaluate(s.admitCfg(), s.sched.TotalReservation(), sub.Reservation, s.sched.EnabledCapacity())
	if !res.Accepted {
		s.respondAdmin(conn, decisionStatus(res.Decision), res)
		return
	}
	// Build the new directory before touching the scheduler: a duplicate ID
	// or host fails here and nothing has changed.
	t := s.top()
	subs := append(directorySubs(t.dir), sub)
	cp, err := t.withSubscribers(subs)
	if err == nil {
		err = s.sched.AddSubscriber(sub)
	}
	if err != nil {
		res.Error = err.Error()
		s.respondAdmin(conn, 409, res)
		return
	}
	s.topo.Store(cp)
	s.admission.rebalance(subs)
	s.rec.Annotate(flightrec.TierEvent{Kind: "sub-admit", Group: string(sub.ID), To: int(sub.Reservation)})
	s.respondAdmin(conn, 200, res)
}

// adminResizeSubscriber changes a live reservation, gated on the delta.
func (s *Server) adminResizeSubscriber(conn net.Conn, id qos.SubscriberID, body []byte) {
	newRes, err := decodeSubscriberResize(body)
	if err != nil {
		s.respondAdmin(conn, 400, adminResult{Op: "subscriber-resize", Subscriber: string(id), Error: err.Error()})
		return
	}
	res := adminResult{Op: "subscriber-resize", Subscriber: string(id)}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	old, ok := s.sched.Reservation(id)
	if !ok {
		res.Error = "unknown subscriber"
		s.respondAdmin(conn, 404, res)
		return
	}
	res.Decision = admitctl.Evaluate(s.admitCfg(), s.sched.TotalReservation(), newRes-old, s.sched.EnabledCapacity())
	if !res.Accepted {
		s.respondAdmin(conn, decisionStatus(res.Decision), res)
		return
	}
	if err := s.sched.ResizeReservation(id, newRes); err != nil {
		res.Error = err.Error()
		s.respondAdmin(conn, 400, res)
		return
	}
	// Rebuild the directory so stats and future quota splits see the new
	// reservation. Same IDs and hosts, so this cannot fail; if it somehow
	// does, the scheduler reservation has already changed and silently
	// keeping the stale topology would let stats and quota splits diverge
	// from it — answer 500 so the operator knows the swap did not land.
	t := s.top()
	subs := directorySubs(t.dir)
	for i := range subs {
		if subs[i].ID == id {
			subs[i].Reservation = newRes
		}
	}
	cp, err := t.withSubscribers(subs)
	if err != nil {
		s.logger.Printf("dispatch: admin resize %s: scheduler resized to %v but directory rebuild failed, topology/quota state is stale: %v", id, newRes, err)
		res.Error = fmt.Sprintf("directory rebuild failed after scheduler resize: %v", err)
		s.respondAdmin(conn, 500, res)
		return
	}
	s.topo.Store(cp)
	s.admission.rebalance(subs)
	s.rec.Annotate(flightrec.TierEvent{Kind: "sub-resize", Group: string(id), From: int(old), To: int(newRes)})
	s.respondAdmin(conn, 200, res)
}

// adminDeleteSubscriber retires a subscriber: its queued requests are
// withdrawn (their waiting connections answer 503), its scheduler state and
// classifier mappings vanish, and its guaranteed slots return to the pool.
func (s *Server) adminDeleteSubscriber(conn net.Conn, id qos.SubscriberID) {
	res := adminResult{Op: "subscriber-delete", Subscriber: string(id)}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	old, ok := s.sched.Reservation(id)
	if !ok {
		res.Error = "unknown subscriber"
		s.respondAdmin(conn, 404, res)
		return
	}
	res.Decision = admitctl.Evaluate(s.admitCfg(), s.sched.TotalReservation(), -old, s.sched.EnabledCapacity())
	orphans, err := s.sched.RemoveSubscriber(id)
	if err != nil {
		res.Error = err.Error()
		s.respondAdmin(conn, 404, res)
		return
	}
	s.refuseOrphans(orphans)
	t := s.top()
	subs := slices.DeleteFunc(directorySubs(t.dir), func(sub qos.Subscriber) bool { return sub.ID == id })
	// Shrinking the directory cannot fail (same entries minus one); if it
	// somehow does, the scheduler state is already gone while the classifier
	// still routes the retired hosts — surface that instead of hiding it.
	cp, err := t.withSubscribers(subs)
	if err != nil {
		s.logger.Printf("dispatch: admin delete %s: scheduler state removed but directory rebuild failed, classifier still maps its hosts: %v", id, err)
		res.Error = fmt.Sprintf("directory rebuild failed after scheduler removal: %v", err)
		s.respondAdmin(conn, 500, res)
		return
	}
	s.topo.Store(cp)
	s.admission.rebalance(subs)
	s.rec.Annotate(flightrec.TierEvent{Kind: "sub-remove", Group: string(id), From: int(old)})
	s.respondAdmin(conn, 200, res)
}

// refuseOrphans wakes every handler still waiting on a request that
// RemoveSubscriber withdrew (see the dispatch handshake): it finds pcAbandoned
// and refuses without relaying. A request its handler gave up meanwhile is
// left alone, whatever its record is serving by now.
func (s *Server) refuseOrphans(orphans []core.Request) {
	for _, o := range orphans {
		if pc, ok := o.Payload.(*pendingConn); ok && pc.claim(o.ID, pcAbandoned) {
			pc.node <- 0
		}
	}
}

// adminAddNode grows the backend pool. The node joins at the bottom of a
// slow-start ramp (breaker.NewRamping) so scale-out capacity absorbs load
// one weight step per accounting cycle instead of taking a thundering herd;
// rampFromTop skips the ramp for pre-warmed replacements.
func (s *Server) adminAddNode(conn net.Conn, id core.NodeID, body []byte) {
	addr, capacity, rampFromTop, err := decodeNodeAdd(body)
	if err != nil {
		s.respondAdmin(conn, 400, adminResult{Op: "node-add", Node: nodeRef(id), Error: err.Error()})
		return
	}
	res := adminResult{Op: "node-add", Node: nodeRef(id)}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	t := s.top()
	if _, dup := t.nodes[id]; dup {
		res.Error = fmt.Sprintf("node %d already exists", id)
		s.respondAdmin(conn, 409, res)
		return
	}
	var b *breaker.Breaker
	if rampFromTop {
		b = breaker.New(s.cfg.Breaker)
	} else {
		b = breaker.NewRamping(s.cfg.Breaker)
	}
	if err := s.sched.AddNode(core.NodeConfig{ID: id, Capacity: capacity}, b.Weight()); err != nil {
		res.Error = err.Error()
		s.respondAdmin(conn, 409, res)
		return
	}
	cp := t.clone()
	cp.nodes[id] = &nodeEntry{id: id, addr: addr, breaker: b, relayLat: telemetry.NewHistogram()}
	s.topo.Store(cp)
	// Growing the pool cannot break a guarantee; the zero-delta evaluation
	// records the post-add committed/capacity state for the operator's log.
	res.Decision = admitctl.Evaluate(s.admitCfg(), s.sched.TotalReservation(), 0, s.sched.EnabledCapacity())
	s.rec.Annotate(flightrec.TierEvent{Kind: "node-add", To: int(id)})
	s.respondAdmin(conn, 200, res)
}

// adminDrainNode gracefully retires a node: feasibility-gated (the remaining
// pool must still cover the committed guarantees, unless forced), weight
// pinned to zero, in-flight accounting left to settle. The response carries
// the node's outstanding load so the operator can poll for drain completion.
func (s *Server) adminDrainNode(conn net.Conn, id core.NodeID, body []byte) {
	force, err := decodeNodeDrain(body)
	if err != nil {
		s.respondAdmin(conn, 400, adminResult{Op: "node-drain", Node: nodeRef(id), Error: err.Error()})
		return
	}
	res := adminResult{Op: "node-drain", Node: nodeRef(id)}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	n := s.node(id)
	if n == nil {
		res.Error = fmt.Sprintf("unknown node %d", id)
		s.respondAdmin(conn, 404, res)
		return
	}
	capacity, _ := s.sched.NodeCapacity(id)
	// A breaker-disabled node already contributes nothing to the enabled
	// pool; subtracting its capacity again would double-count the loss.
	leaving := capacity
	if !s.sched.NodeEnabled(id) {
		leaving = qos.Vector{}
	}
	res.Decision = admitctl.NodeRemovalFeasible(s.admitCfg(), s.sched.TotalReservation(), s.sched.EnabledCapacity(), leaving)
	if !res.Accepted && !force {
		s.respondAdmin(conn, decisionStatus(res.Decision), res)
		return
	}
	// Set the draining mark before dropping the weight: applyWeight reads
	// it, so from here no breaker tick can ramp the node back up; DrainNode
	// then forces the weight to zero, whatever an applyWeight that read the
	// mark a moment earlier is about to set.
	n.draining.Store(true)
	outst, err := s.sched.DrainNode(id)
	if err != nil {
		res.Error = err.Error()
		s.respondAdmin(conn, 404, res)
		return
	}
	// No dispatch will ask for its idle connections again; exchanges in
	// flight close their own when they finish (see park).
	s.reapIdle(n, time.Now())
	res.OutstandingGeneric = outst.GenericUnits()
	s.rec.Annotate(flightrec.TierEvent{Kind: "node-drain", To: int(id)})
	s.respondAdmin(conn, 200, res)
}

// ServeAdmin runs a control-plane-only listener until Close: the admin
// endpoints plus the five read-only operational ones (stats, metrics, trace,
// cycles, events), and nothing else — client traffic cannot be proxied
// through it. Deployments bind it to a private address (gaged's adminListen
// knob) so the mutation surface never shares a port with subscriber traffic.
func (s *Server) ServeAdmin(ln net.Listener) error {
	if err := s.bind(&s.adminLn, ln); err != nil {
		return err
	}
	return s.accept(ln, true)
}
