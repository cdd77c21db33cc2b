package dispatch

import (
	"sort"
	"strings"

	"gage/internal/core"
	"gage/internal/flightrec"
	"gage/internal/qos"
)

// This file is the dispatcher's side of a partition migration in the
// multi-RDN tier. When a tenant group moves to another front end — a
// graceful handback after recovery, or this instance shutting down after
// being deposed — the requests still queued for that group must not be
// dispatched here (the fence would refuse each one after charging it) and
// must not be counted as shed (they are not lost): they are withdrawn
// through the same dispatch handshake the abandon path uses and handed back as
// a redispatchable backlog the partition's new owner replays.

// Handoff is one withdrawn request: enough to redispatch it on the
// partition's new owner.
type Handoff struct {
	// ID is the scheduler request id the deposed owner had assigned.
	ID         uint64           `json:"id"`
	Subscriber qos.SubscriberID `json:"subscriber"`
	Group      string           `json:"group"`
	Method     string           `json:"method"`
	Target     string           `json:"target"`
	Host       string           `json:"host"`
}

// SetMigrating marks tenant groups as migrating away from this front end.
// Close's drain treats their still-queued requests as handoffs — withdrawn
// and recorded for the new owner — rather than dispatching or shedding
// them. Call it when the lease table moves a partition, before Close.
func (s *Server) SetMigrating(groups ...string) {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	for _, g := range groups {
		s.migrating[g] = struct{}{}
	}
}

// Handoffs returns the withdrawn redispatchable backlog collected by Close,
// in withdrawal order.
func (s *Server) Handoffs() []Handoff {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	out := make([]Handoff, len(s.handoffs))
	copy(out, s.handoffs)
	return out
}

// handoffMigrating withdraws every still-queued request of the migrating
// groups. It runs once, at the start of Close, while the scheduling loop is
// still live: RemoveGroup pulls the group's queues out of the scheduler
// atomically, so the tick loop can no longer dispatch what it returns.
func (s *Server) handoffMigrating() {
	s.migMu.Lock()
	groups := make([]string, 0, len(s.migrating))
	for g := range s.migrating {
		groups = append(groups, g)
	}
	s.migMu.Unlock()
	sort.Strings(groups)
	for _, g := range groups {
		orphans, err := s.sched.RemoveGroup(g)
		if err != nil {
			s.logger.Printf("dispatch: handoff group %q: %v", g, err)
			continue
		}
		s.handOff(g, orphans)
	}
}

// handOff turns the requests RemoveGroup withdrew from group g into Handoffs.
// The record's claim (see the dispatch handshake) settles each one's race
// against its own handler: a request the client already abandoned stays
// abandoned, whatever its record is serving by now; the rest are Handoffs.
func (s *Server) handOff(g string, orphans []core.Request) {
	for _, r := range orphans {
		pc, ok := r.Payload.(*pendingConn)
		if !ok || !pc.claim(r.ID, pcHandedOff) {
			continue
		}
		// Until the send below the handler can only wait, so its parsed
		// request is safe to read. The strings cut from it are views of a
		// head the connection's next request overwrites, and a Handoff is
		// read long after that: it takes copies.
		req := &pc.w.req
		s.migMu.Lock()
		s.handoffs = append(s.handoffs, Handoff{
			ID:         r.ID,
			Subscriber: r.Subscriber,
			Group:      g,
			Method:     strings.Clone(req.Method),
			Target:     strings.Clone(req.Target),
			Host:       strings.Clone(req.Host),
		})
		s.migMu.Unlock()
		s.handedOff.Add(1)
		s.rec.Annotate(flightrec.TierEvent{Kind: "handback", Group: g})
		pc.node <- 0 // never read: pcHandedOff routes the handler
	}
}
