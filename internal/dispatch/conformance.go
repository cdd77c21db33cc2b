package dispatch

import (
	"net"
	"time"

	"gage/internal/flightrec"
	"gage/internal/telemetry"
)

// CyclesPath dumps the flight recorder's retained cycle records as JSON —
// the last ring's worth of per-cycle scheduler state (balances, credits,
// queue lengths, dispatch rounds, node load). 404 when recording is off.
const CyclesPath = "/_gage/cycles"

// DefaultConformanceWindow is the auditor's slow sliding window when
// Config.ConformanceWindow is zero: long enough to smooth accounting-cycle
// granularity, short enough that a violated guarantee surfaces within
// seconds.
const DefaultConformanceWindow = 10 * time.Second

// cyclesJSON is the wire form of the cycles endpoint.
type cyclesJSON struct {
	// RingSize is the retention capacity; Seq counts cycles ever recorded.
	RingSize int    `json:"ringSize"`
	Seq      uint64 `json:"seq"`
	// SpillError reports a failed cycle-log write, empty when healthy.
	SpillError string `json:"spillError,omitempty"`
	// Records is the retained window, oldest first.
	Records []flightrec.CycleRecord `json:"records"`
}

// serveCycles answers the flight-recorder dump endpoint.
func (s *Server) serveCycles(conn net.Conn) {
	if s.rec == nil {
		s.respondError(conn, 404)
		return
	}
	out := cyclesJSON{
		RingSize: s.rec.RingSize(),
		Seq:      s.rec.Seq(),
		Records:  s.rec.Recent(0),
	}
	if err := s.rec.SpillErr(); err != nil {
		out.SpillError = err.Error()
	}
	if out.Records == nil {
		out.Records = []flightrec.CycleRecord{}
	}
	s.respondJSON(conn, 200, out)
}

// addConformance appends the guarantee-conformance families to a scrape:
// delivered-versus-reserved ratios per burn-rate window, the Figure-3
// deviation statistic, violation spans, and spare-share gauges. No-op when
// recording is off.
func (s *Server) addConformance(e *telemetry.Exposition) {
	if s.auditor == nil {
		return
	}
	s.auditor.Sync()
	rep := s.auditor.Report()

	e.Family("gage_cycle_records_total", "counter", "Scheduler cycles ingested by the conformance auditor.")
	e.Add("gage_cycle_records_total", nil, float64(rep.Records))
	e.Family("gage_cycle_records_dropped_total", "counter", "Cycle records the auditor missed because the ring lapped between scrapes.")
	e.Add("gage_cycle_records_dropped_total", nil, float64(rep.Dropped))

	subLabel := func(id string) []telemetry.Label {
		return []telemetry.Label{{Name: "subscriber", Value: id}}
	}
	winLabel := func(id, win string) []telemetry.Label {
		return []telemetry.Label{
			{Name: "subscriber", Value: id},
			{Name: "window", Value: win},
		}
	}
	// A family with HELP/TYPE but no samples fails the exposition lint, so
	// per-subscriber families wait for the first ingested cycle, and the
	// deviation family for the first subscriber with a computable statistic
	// (at least one complete averaging interval).
	if len(rep.Subs) == 0 {
		return
	}
	e.Family("gage_conformance_ratio", "gauge", "Delivered/reserved GRPS per burn-rate window (fast and slow); 0 for zero reservations.")
	for _, sub := range rep.Subs {
		e.Add("gage_conformance_ratio", winLabel(string(sub.ID), "fast"), sub.FastRatio)
		e.Add("gage_conformance_ratio", winLabel(string(sub.ID), "slow"), sub.SlowRatio)
	}
	haveDeviation := false
	for _, sub := range rep.Subs {
		if sub.DeviationOK {
			haveDeviation = true
		}
	}
	if haveDeviation {
		e.Family("gage_deviation", "gauge", "Figure-3 deviation from reservation over the audit window (mean |rate-res|/res per interval).")
		for _, sub := range rep.Subs {
			if sub.DeviationOK {
				e.Add("gage_deviation", subLabel(string(sub.ID)), sub.Deviation)
			}
		}
	}
	e.Family("gage_violation_total", "counter", "Guarantee-violation spans opened per subscriber (fast and slow windows below threshold with standing demand).")
	for _, sub := range rep.Subs {
		e.Add("gage_violation_total", subLabel(string(sub.ID)), float64(sub.Violations))
	}
	e.Family("gage_violation_active", "gauge", "1 while a subscriber's guarantee violation is in progress.")
	for _, sub := range rep.Subs {
		active := 0.0
		if sub.Violating {
			active = 1
		}
		e.Add("gage_violation_active", subLabel(string(sub.ID)), active)
	}
	e.Family("gage_spare_share", "gauge", "Subscriber's fraction of spare-round dispatches in the audit window.")
	for _, sub := range rep.Subs {
		e.Add("gage_spare_share", subLabel(string(sub.ID)), sub.SpareShare)
	}
	e.Family("gage_backlogged_fraction", "gauge", "Fraction of fast-window cycles ending with queued requests (the violation demand gate).")
	for _, sub := range rep.Subs {
		e.Add("gage_backlogged_fraction", subLabel(string(sub.ID)), sub.Backlogged)
	}
}

// Recorder exposes the flight recorder, nil when recording is off.
func (s *Server) Recorder() *flightrec.Recorder { return s.rec }

// Auditor exposes the conformance auditor, nil when recording is off.
func (s *Server) Auditor() *flightrec.Auditor { return s.auditor }
