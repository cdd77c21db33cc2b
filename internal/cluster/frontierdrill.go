package cluster

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"gage/internal/faults"
	"gage/internal/flightrec"
	"gage/internal/frontier"
	"gage/internal/qos"
	"gage/internal/workload"
)

// FrontierDrillOptions configures the deterministic RDN-failover drill: a
// three-instance front-end tier under steady per-partition load, one
// instance killed mid-run and recovered later. Every knob has a default so
// the zero value is the CI scenario.
type FrontierDrillOptions struct {
	// RDNCount is the tier size (default 3).
	RDNCount int
	// NumRPNs is the back-end size (default 4).
	NumRPNs int
	// Groups is the tenant-group count (default 6), PerGroup the
	// subscribers per group (default 2).
	Groups   int
	PerGroup int
	// ResPerSub is each subscriber's reservation in GRPS (default 20).
	ResPerSub qos.GRPS
	// LeaseInterval is the failover detection bound (default 400 ms);
	// heartbeats run at a quarter of it.
	LeaseInterval time.Duration
	// Warmup/Duration as in Options (defaults 1 s / 8 s).
	Warmup   time.Duration
	Duration time.Duration
	// CrashAt/RecoverAt are offsets from run start, warmup included
	// (defaults 4 s / 6.5 s).
	CrashAt   time.Duration
	RecoverAt time.Duration
	// Victim picks the instance to kill; 0 kills the owner of the first
	// tenant group.
	Victim int
}

// WithDefaults fills every unset knob.
func (o FrontierDrillOptions) WithDefaults() FrontierDrillOptions {
	if o.RDNCount <= 0 {
		o.RDNCount = 3
	}
	if o.NumRPNs <= 0 {
		o.NumRPNs = 4
	}
	if o.Groups <= 0 {
		o.Groups = 6
	}
	if o.PerGroup <= 0 {
		o.PerGroup = 2
	}
	if o.ResPerSub <= 0 {
		o.ResPerSub = 20
	}
	if o.LeaseInterval <= 0 {
		o.LeaseInterval = 400 * time.Millisecond
	}
	if o.Warmup <= 0 {
		o.Warmup = time.Second
	}
	if o.Duration <= 0 {
		o.Duration = 8 * time.Second
	}
	if o.CrashAt <= 0 {
		o.CrashAt = 4 * time.Second
	}
	if o.RecoverAt <= 0 {
		o.RecoverAt = 6500 * time.Millisecond
	}
	return o
}

// FrontierDrillReport is the drill's outcome plus enough context to assert
// (or print) the failover story: who died, which partition went dark, how
// fast a survivor adopted it, and the per-instance cycle logs for the
// offline audit.
type FrontierDrillReport struct {
	Opts   FrontierDrillOptions
	Result *FrontierResult
	// Victim is the killed instance; VictimGroups its partition at crash.
	Victim       int
	VictimGroups []string
	// SurvivorGroups are the groups owned by other instances throughout.
	SurvivorGroups []string
	// TakeoverLatency is first takeover minus crash time (0 if none).
	TakeoverLatency time.Duration
	// Records holds each instance's cycle log (index rdn−1) for gagetrace.
	Records [][]flightrec.CycleRecord
}

// drillGroup names tenant groups tier00, tier01, … matching the frontier
// partitioner's golden-test population style.
func drillGroup(i int) string { return fmt.Sprintf("tier%02d", i) }

// RDNFailoverDrill runs the deterministic kill/recover drill. Same options
// ⇒ identical report: the workload is constant-rate, the fault plan exact,
// and the whole tier runs on the virtual clock.
func RDNFailoverDrill(opts FrontierDrillOptions) (*FrontierDrillReport, error) {
	opts = opts.WithDefaults()
	part, err := frontier.NewPartitioner(opts.RDNCount)
	if err != nil {
		return nil, err
	}
	victim := opts.Victim
	if victim == 0 {
		victim = part.Owner(drillGroup(0))
	}

	var subs []qos.Subscriber
	var sources []workload.Source
	generic := qos.GenericCost()
	var victimGroups, survivorGroups []string
	for gi := 0; gi < opts.Groups; gi++ {
		g := drillGroup(gi)
		if part.Owner(g) == victim {
			victimGroups = append(victimGroups, g)
		} else {
			survivorGroups = append(survivorGroups, g)
		}
		for si := 0; si < opts.PerGroup; si++ {
			id := qos.SubscriberID(fmt.Sprintf("%s-s%d", g, si))
			host := fmt.Sprintf("%s.example", id)
			subs = append(subs, qos.Subscriber{
				ID:          id,
				Hosts:       []string{host},
				Reservation: opts.ResPerSub,
				QueueLimit:  256,
				Group:       g,
			})
			// Offered load sits at the reservation: partitions are
			// independent, so survivors must keep meeting it exactly while
			// the victim's share is dark.
			sources = append(sources, mustConstSource(id, host, float64(opts.ResPerSub), generic))
		}
	}

	recs := make([]*flightrec.Recorder, opts.RDNCount)
	for i := range recs {
		recs[i] = flightrec.NewRecorder(flightrec.Config{RingSize: 4096})
	}
	plan := &faults.Plan{Events: []faults.Event{
		{Kind: faults.RDNCrash, RDN: victim, At: opts.CrashAt},
		{Kind: faults.RDNRecover, RDN: victim, At: opts.RecoverAt},
	}}
	res, err := RunFrontier(FrontierOptions{
		Options: Options{
			Subscribers: subs,
			Sources:     sources,
			NumRPNs:     opts.NumRPNs,
			Warmup:      opts.Warmup,
			Duration:    opts.Duration,
			Faults:      plan,
		},
		RDNCount:      opts.RDNCount,
		LeaseInterval: opts.LeaseInterval,
		Recorders:     recs,
	})
	if err != nil {
		return nil, err
	}
	rep := &FrontierDrillReport{
		Opts:           opts,
		Result:         res,
		Victim:         victim,
		VictimGroups:   victimGroups,
		SurvivorGroups: survivorGroups,
		Records:        make([][]flightrec.CycleRecord, opts.RDNCount),
	}
	for i, r := range recs {
		rep.Records[i] = r.Recent(0)
	}
	for _, ch := range res.Takeovers {
		if ch.Kind == "takeover" && ch.From == victim {
			rep.TakeoverLatency = ch.At - opts.CrashAt
			break
		}
	}
	return rep, nil
}

// MergedRecords interleaves every instance's cycle log by offset — the
// stream gagetrace audits. The merge is stable, so same-offset records keep
// instance order.
func (rep *FrontierDrillReport) MergedRecords() []flightrec.CycleRecord {
	var all []flightrec.CycleRecord
	for _, recs := range rep.Records {
		all = append(all, recs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}

// Check asserts the drill's acceptance story: the takeover fired within one
// lease interval (plus heartbeat granularity), the partition came back to
// its recovered home, the settlement books close exactly, the blast radius
// stayed inside the victim's partition, and the merged cycle-log audit sees
// clean survivors plus the takeover trail.
func (rep *FrontierDrillReport) Check() error {
	r := rep.Result
	if got, want := r.AdmittedReqs, r.DispatchedReqs+r.QueuedAtEnd+r.LostQueuedReqs; got != want {
		return fmt.Errorf("admission books do not close: admitted %d != dispatched %d + queued %d + lost %d",
			r.AdmittedReqs, r.DispatchedReqs, r.QueuedAtEnd, r.LostQueuedReqs)
	}
	if got, want := r.DispatchedReqs, r.DeliveredReqs+r.ReclaimedReqs+r.FencedReqs+r.InflightAtEnd; got != want {
		return fmt.Errorf("settlement books do not close: dispatched %d != delivered %d + reclaimed %d + fenced %d + inflight %d",
			r.DispatchedReqs, r.DeliveredReqs, r.ReclaimedReqs, r.FencedReqs, r.InflightAtEnd)
	}
	if r.BalanceViolations != 0 {
		return fmt.Errorf("%d balance clamp violations", r.BalanceViolations)
	}
	sawHandback := slices.ContainsFunc(r.Takeovers, func(ch TierChange) bool {
		return ch.Kind == "handback" && ch.To == rep.Victim && ch.At >= rep.Opts.RecoverAt
	})
	if len(rep.VictimGroups) > 0 {
		bound := rep.Opts.LeaseInterval + rep.Opts.LeaseInterval/2
		if lat := rep.TakeoverLatency; lat <= 0 || lat > bound {
			return fmt.Errorf("takeover from victim RDN %d after %v, want within (0, %v]", rep.Victim, lat, bound)
		}
		if !sawHandback {
			return fmt.Errorf("no handback to recovered RDN %d", rep.Victim)
		}
		if r.RefusedDeadReqs == 0 {
			return fmt.Errorf("outage invisible: no refused requests at the dead front end")
		}
	}
	// Blast radius: only the victim's partition may drop anything.
	for _, row := range r.Rows {
		g := string(row.ID[:6])
		if slices.Contains(rep.SurvivorGroups, g) && row.DroppedReqs != 0 {
			return fmt.Errorf("survivor partition %s dropped %d requests", row.ID, row.DroppedReqs)
		}
	}
	// Offline audit over the merged per-instance logs: survivors conform
	// with zero violation spans, and the takeover trail is in the stream.
	audit := flightrec.Replay(rep.MergedRecords(), flightrec.AuditorConfig{
		Skip: rep.Opts.Warmup,
	})
	var sawEvent bool
	for _, ev := range audit.Events {
		if ev.Event.Kind == "takeover" {
			sawEvent = true
		}
	}
	if len(rep.VictimGroups) > 0 && !sawEvent {
		return fmt.Errorf("takeover missing from flight-recorder stream")
	}
	for _, sr := range audit.Subs {
		g := string(sr.ID[:6])
		if slices.Contains(rep.SurvivorGroups, g) && sr.Violations != 0 {
			return fmt.Errorf("survivor %s shows %d violation spans in audit", sr.ID, sr.Violations)
		}
	}
	return nil
}

// KneePoint is one entry of the Figure-6-style projection: with the client
// packet stream partitioned across N front ends, each instance sees 1/N of
// the packet rate, so the interrupt-overload knee — and with it the tier's
// saturation throughput — moves right by N.
type KneePoint struct {
	RDNs         int
	SatReqPerSec float64
}

// FrontierKnee projects the tier's saturation request rate for each RDN
// count under the given front-end cost model.
func FrontierKnee(m RDNModel, tiers []int) []KneePoint {
	base := saturationRate(m)
	out := make([]KneePoint, 0, len(tiers))
	for _, n := range tiers {
		if n <= 0 {
			continue
		}
		out = append(out, KneePoint{RDNs: n, SatReqPerSec: base * float64(n)})
	}
	return out
}
