// Events endpoint: the unified observability bus over HTTP. GET
// /_gage/events dumps the in-memory event ring — the most recent
// schema-versioned events from every publisher (request spans, recorder
// cycles, tier transitions, breaker flips, admin decisions, guarantee
// violations) in causal order, plus the bus counters needed to judge how
// much history the ring still holds. Spilled logs on disk are the durable
// record; this endpoint is the live window an operator or gagetrace merge
// reads without touching the filesystem.
package dispatch

import (
	"net"

	"gage/internal/obs"
)

// EventsPath is the HTTP path serving the unified event bus ring.
const EventsPath = "/_gage/events"

// eventDumpJSON is the wire shape of the events endpoint.
type eventDumpJSON struct {
	Schema    int         `json:"schema"`
	RingSize  int         `json:"ringSize"`
	Published uint64      `json:"published"`
	Dropped   uint64      `json:"dropped"`
	Events    []obs.Event `json:"events"`
}

// serveEvents dumps the event ring. A server configured without a bus
// (EventRingSize zero and no EventLog) answers 404 — the endpoint's
// absence signals that observability is off, the same contract as the
// flight recorder's cycle endpoint.
func (s *Server) serveEvents(conn net.Conn) {
	if s.bus == nil {
		s.respondError(conn, 404)
		return
	}
	out := eventDumpJSON{
		Schema:    obs.SchemaVersion,
		RingSize:  s.bus.RingSize(),
		Published: s.bus.Seq(),
		Dropped:   s.bus.Dropped(),
		Events:    s.bus.Events(),
	}
	if out.Events == nil {
		out.Events = []obs.Event{}
	}
	s.respondJSON(conn, 200, out)
}

// Bus exposes the unified event bus (tests, embedding binaries). Nil when
// the server was configured without one.
func (s *Server) Bus() *obs.Bus { return s.bus }
