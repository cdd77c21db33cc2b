package dispatch

import (
	"fmt"
	"net"
	"sort"

	"gage/internal/breaker"
	"gage/internal/core"
	"gage/internal/qos"
	"gage/internal/telemetry"
)

// MetricsPath serves the dispatcher's state in Prometheus text format: the
// Stats counters, per-subscriber scheduler and admission state, per-node
// breaker state, and the latency summaries.
const MetricsPath = "/metrics"

// TracePath dumps the tracer's retained request-lifecycle traces as JSON.
const TracePath = "/_gage/trace"

// latencyQuantiles are the summary quantiles exposed at MetricsPath.
var latencyQuantiles = []float64{0.5, 0.9, 0.99}

// buildExposition renders one scrape. Families and series are emitted in a
// fixed order (counters first, then per-subscriber, per-node, latency
// summaries; subscribers and nodes sorted by ID) so successive scrapes are
// comparable line by line.
func (s *Server) buildExposition() ([]byte, error) {
	st := s.Stats()
	e := telemetry.NewExposition()

	counters := []struct {
		name, help string
		value      uint64
	}{
		{"gage_connections_accepted_total", "Client connections accepted.", st.Accepted},
		{"gage_requests_served_total", "Requests relayed successfully.", st.Served},
		{"gage_requests_rejected_total", "Requests refused with 503 (queue overflow or queue timeout).", st.Rejected},
		{"gage_requests_unclassified_total", "Requests with no matching subscriber (404).", st.Unclassified},
		{"gage_relay_errors_total", "Backend dial/relay failures (502).", st.Errors},
		{"gage_relays_retried_total", "Relays re-dispatched to an alternate backend after a dial failure.", st.Retried},
		{"gage_requests_abandoned_total", "Requests withdrawn after enqueue with their scheduler charge reclaimed.", st.Abandoned},
		{"gage_connections_shed_total", "Connections refused with a fast 503 past MaxConns.", st.ShedConns},
		{"gage_requests_shed_total", "Requests refused by per-subscriber admission control.", st.Shed},
	}
	seen, sampled, settled := s.tracer.Counts()
	counters = append(counters, []struct {
		name, help string
		value      uint64
	}{
		{"gage_traces_seen_total", "Requests considered for trace sampling.", seen},
		{"gage_traces_sampled_total", "Requests selected for lifecycle tracing.", sampled},
		{"gage_traces_settled_total", "Sampled traces that reached a terminal outcome.", settled},
		{"gage_trace_dropped_total", "Completed traces evicted from the retention ring before being read.", s.tracer.Dropped()},
		{"gage_event_dropped_total", "Bus events overwritten in the ring before being spilled or read.", s.bus.Dropped()},
		{"gage_tick_missed_total", "Scheduling cycles not run at their own time: run late in a catch-up burst, or discarded past the credit window.", s.tickMissed.Load()},
	}...)
	for _, c := range counters {
		e.Family(c.name, "counter", c.help)
		e.Add(c.name, nil, float64(c.value))
	}
	e.Family("gage_dispatch_total", "counter", "Dispatch decisions handed to a waiting request, by when they were made: on arrival (the subscriber's reservation already covered it) or at a scheduling tick (it waited in the queue).")
	e.Add("gage_dispatch_total", []telemetry.Label{{Name: "at", Value: "arrival"}}, float64(st.DispatchedOnArrival))
	e.Add("gage_dispatch_total", []telemetry.Label{{Name: "at", Value: "tick"}}, float64(st.DispatchedAtTick))

	e.Family("gage_trace_sample_period", "gauge", "Every Nth request is traced; 0 means tracing is off.")
	e.Add("gage_trace_sample_period", nil, float64(s.tracer.SampleEvery()))

	t := s.top()
	subIDs := t.dir.IDs() // already sorted
	subLabel := func(id string) []telemetry.Label {
		return []telemetry.Label{{Name: "subscriber", Value: id}}
	}
	e.Family("gage_subscriber_queue_length", "gauge", "Queued (undispatched) requests per subscriber.")
	for _, id := range subIDs {
		e.Add("gage_subscriber_queue_length", subLabel(string(id)), float64(s.sched.QueueLen(id)))
	}
	e.Family("gage_subscriber_queue_dropped_total", "counter", "Requests dropped at enqueue due to queue overflow.")
	for _, id := range subIDs {
		e.Add("gage_subscriber_queue_dropped_total", subLabel(string(id)), float64(s.sched.Dropped(id)))
	}
	e.Family("gage_subscriber_dispatched_total", "counter", "Scheduler dispatch decisions per subscriber.")
	for _, id := range subIDs {
		e.Add("gage_subscriber_dispatched_total", subLabel(string(id)), float64(s.sched.Dispatched(id)))
	}
	e.Family("gage_subscriber_inflight", "gauge", "Admitted in-flight requests per subscriber.")
	for _, id := range subIDs {
		_, inflight, _ := s.admission.subSnapshot(id)
		e.Add("gage_subscriber_inflight", subLabel(string(id)), float64(inflight))
	}
	e.Family("gage_subscriber_admission_quota", "gauge", "Guaranteed in-flight slots per subscriber (0 when admission control is off).")
	for _, id := range subIDs {
		quota, _, _ := s.admission.subSnapshot(id)
		e.Add("gage_subscriber_admission_quota", subLabel(string(id)), float64(quota))
	}
	e.Family("gage_subscriber_shed_total", "counter", "Admission-control refusals per subscriber.")
	for _, id := range subIDs {
		_, _, shed := s.admission.subSnapshot(id)
		e.Add("gage_subscriber_shed_total", subLabel(string(id)), float64(shed))
	}

	// One row per node: its record, its label and one breaker snapshot, so
	// the node families of a scrape agree with one another.
	type nodeRow struct {
		*nodeEntry
		label []telemetry.Label
		snap  breaker.Snapshot
	}
	nodes := make([]nodeRow, 0, len(t.nodes))
	for id, n := range t.nodes {
		nodes = append(nodes, nodeRow{n, []telemetry.Label{{Name: "node", Value: fmt.Sprintf("%d", id)}}, n.snapshot()})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })
	e.Family("gage_node_weight", "gauge", "Fraction of the node's capacity the scheduler may use (breaker slow-start ramp; 0 while draining).")
	for _, n := range nodes {
		e.Add("gage_node_weight", n.label, n.snap.Weight)
	}
	e.Family("gage_node_breaker_state", "gauge", "Breaker state per node: 0 closed, 1 open, 2 half-open.")
	for _, n := range nodes {
		e.Add("gage_node_breaker_state", n.label, float64(n.snap.State))
	}
	e.Family("gage_node_breaker_opens_total", "counter", "Breaker transitions into Open per node.")
	for _, n := range nodes {
		e.Add("gage_node_breaker_opens_total", n.label, float64(n.snap.Opens))
	}
	e.Family("gage_backend_dials_total", "counter", "Backend connections dialled for relays per node (accounting polls excluded).")
	for _, n := range nodes {
		e.Add("gage_backend_dials_total", n.label, float64(n.pool.dials.Load()))
	}
	e.Family("gage_backend_conn_reuses_total", "counter", "Relay exchanges started on a pooled backend connection per node.")
	for _, n := range nodes {
		e.Add("gage_backend_conn_reuses_total", n.label, float64(n.pool.reuses.Load()))
	}

	e.Family("gage_request_latency_seconds", "summary", "End-to-end latency of served requests, classify to response write.")
	for _, id := range subIDs {
		e.Summary("gage_request_latency_seconds", subLabel(string(id)), t.subs[id].reqLat.Snapshot(), latencyQuantiles)
	}
	e.Family("gage_relay_latency_seconds", "summary", "Backend exchange latency of successful relays, dial to response read.")
	for _, n := range nodes {
		e.Summary("gage_relay_latency_seconds", n.label, n.relayLat.Snapshot(), latencyQuantiles)
	}
	e.Family("gage_tick_late_seconds", "summary", "How far past due the scheduling loop found its oldest owed cycle, per wake.")
	e.Summary("gage_tick_late_seconds", nil, s.tickLate.Snapshot(), latencyQuantiles)
	s.addConformance(e)
	return e.Bytes()
}

// serveMetrics answers the Prometheus exposition endpoint.
func (s *Server) serveMetrics(conn net.Conn) {
	body, err := s.buildExposition()
	if err != nil {
		// A build error is a bug (malformed family layout), not a client
		// problem; surface it loudly.
		s.logger.Printf("dispatch: metrics exposition: %v", err)
		s.respondError(conn, 500)
		return
	}
	s.respond(conn, 200, telemetry.ContentType, body)
}

// traceDumpJSON is the wire form of the trace endpoint.
type traceDumpJSON struct {
	// SampleEvery is the tracing period (0 when tracing is off).
	SampleEvery uint64 `json:"sampleEvery"`
	// Seen, Sampled and Settled are the tracer's lifetime counts.
	Seen    uint64 `json:"seen"`
	Sampled uint64 `json:"sampled"`
	Settled uint64 `json:"settled"`
	// Traces is the ring of retained completed traces, oldest first.
	Traces []telemetry.Trace `json:"traces"`
}

// serveTrace answers the trace-dump endpoint.
func (s *Server) serveTrace(conn net.Conn) {
	seen, sampled, settled := s.tracer.Counts()
	out := traceDumpJSON{
		SampleEvery: s.tracer.SampleEvery(),
		Seen:        seen,
		Sampled:     sampled,
		Settled:     settled,
		Traces:      s.tracer.Traces(),
	}
	if out.Traces == nil {
		out.Traces = []telemetry.Trace{}
	}
	s.respondJSON(conn, 200, out)
}

// Tracer exposes the request tracer (tests, embedding binaries).
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// RequestLatency returns a subscriber's end-to-end served-latency
// histogram, or nil for unknown subscribers.
func (s *Server) RequestLatency(id qos.SubscriberID) *telemetry.Histogram {
	if ent := s.top().subs[id]; ent != nil {
		return ent.reqLat
	}
	return nil
}

// RelayLatency returns a node's backend-exchange latency histogram, or nil
// for unknown nodes.
func (s *Server) RelayLatency(id core.NodeID) *telemetry.Histogram {
	if n := s.node(id); n != nil {
		return n.relayLat
	}
	return nil
}
