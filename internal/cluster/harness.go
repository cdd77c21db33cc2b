package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"gage/internal/core"
	"gage/internal/faults"
	"gage/internal/flightrec"
	"gage/internal/metrics"
	"gage/internal/obs"
	"gage/internal/qos"
	"gage/internal/telemetry"
	"gage/internal/workload"
)

// The simulated testbed's fixed wiring — the paper's, and nothing any
// experiment varies.
const (
	// linkBandwidth is each RPN's outbound bandwidth: Fast Ethernet, in
	// bytes/sec.
	linkBandwidth = 12.5e6
	// dispatchLatency delays a dispatched request RDN→RPN and
	// feedbackLatency an accounting message RPN→RDN.
	dispatchLatency = 100 * time.Microsecond
	feedbackLatency = 200 * time.Microsecond
)

// Options configures one simulated experiment run.
type Options struct {
	// Subscribers defines the sites and reservations.
	Subscribers []qos.Subscriber
	// Sources defines the client load, one or more per subscriber.
	Sources []workload.Source
	// ReplayTrace, when non-empty, is replayed verbatim as the arrival
	// stream and Sources is ignored — trace-driven runs, as the paper does
	// with its SPECWeb99-derived trace.
	ReplayTrace []workload.Request

	// NumRPNs is the back-end cluster size.
	NumRPNs int
	// RPNSpeed scales each RPN's CPU/disk rate (1.0 = nominal 1 resource-
	// second per second). Use it to set aggregate cluster capacity.
	RPNSpeed float64

	// SchedCycle is the RDN scheduling cycle (default 10 ms, §3.4).
	SchedCycle time.Duration
	// AcctCycle is the accounting cycle (default 100 ms).
	AcctCycle time.Duration

	// Gate selects the scheduler's reservation-gate mode.
	Gate core.GateMode
	// DisableCapacityDrain selects the paper-faithful node-capacity
	// bookkeeping (release only at accounting messages).
	DisableCapacityDrain bool
	// SchedulerAlpha overrides the usage predictor's EWMA weight (the core
	// default when zero).
	SchedulerAlpha float64
	// CreditWindow and OutstandingWindow override the scheduler windows;
	// zero derives them from the accounting cycle (2× with floors at the
	// core defaults) so feedback-paced release never throttles throughput.
	CreditWindow      time.Duration
	OutstandingWindow time.Duration

	// RDN, when non-nil, charges front-end processing per request and
	// models the interrupt-overload knee (scalability study).
	RDN *RDNModel
	// RPNOverhead is the per-request CPU time each RPN spends in Gage's
	// local service manager (splicing setup + remapping); zero disables it.
	RPNOverhead time.Duration

	// UnitResource selects how usage vectors convert to generic units in
	// the measured rates and series: a single resource dimension, or the
	// max across dimensions when zero (the default).
	UnitResource qos.Resource

	// LocalityDispatch turns on content-aware request distribution (§3.6):
	// requests for URL pages in the same directory prefer the same RPN.
	LocalityDispatch bool
	// CacheEntries gives each RPN an LRU page cache of that many entries;
	// cache hits skip the request's disk-channel time (0 disables).
	CacheEntries int

	// Recorder, when non-nil, receives one flightrec.CycleRecord per
	// scheduling cycle, stamped with virtual-time offsets from the start of
	// the run (warmup included) — the same origin convention as request
	// arrivals, so an offline audit excludes warmup with Skip=Warmup. The
	// recorder's clock is pointed at the engine's virtual clock; live and
	// simulated cycle logs then share one format and one time base.
	Recorder *flightrec.Recorder

	// Auditor, when non-nil alongside a Recorder, audits the run live: it
	// syncs from the Recorder once per accounting cycle on the virtual
	// clock, settled traced requests feed its exemplar reservoirs, and —
	// with a Bus attached via SetBus — violation spans publish as events at
	// their exact virtual offsets, just as the live dispatcher's auditor
	// does.
	Auditor *flightrec.Auditor

	// Bus, when non-nil, receives the run's unified event stream — request
	// spans for traced arrivals, fault injections, breaker transitions,
	// scripted admission outcomes, and (through the Recorder) cycle and tier
	// records — all stamped with virtual-time offsets from the start of the
	// run, the same origin as cycle records. Same run ⇒ identical stream.
	Bus *obs.Bus
	// TraceEvery samples every Nth arrival (by request ID) for span events
	// on the Bus; 0 disables span tracing. Sampling is deterministic, so a
	// replayed drill selects the same exemplar requests.
	TraceEvery uint64

	// Faults, when non-nil, is the deterministic chaos schedule executed at
	// exact virtual times: node crashes/recoveries, accounting drop/delay
	// windows, link degradation, CPU-speed dips. Same (workload, plan) ⇒
	// identical Result. Event offsets count from the start of the run
	// (warmup included), like request arrivals.
	Faults *faults.Plan

	// Admissions, when non-empty, is the deterministic elasticity schedule:
	// scripted subscriber admissions/resizes/removals and node add/drain
	// events applied at exact virtual times through the same admitctl policy
	// the live control plane runs, at its default headroom (reservations may
	// commit all enabled capacity). Event offsets count from the start of the
	// run (warmup included), like Faults. Same (workload, schedule) ⇒
	// identical Result and AdmissionLog.
	Admissions []AdmissionEvent

	// Warmup is excluded from all measurements; Duration is the measured
	// window after warmup.
	Warmup   time.Duration
	Duration time.Duration
}

func (o Options) withDefaults() Options {
	if o.NumRPNs <= 0 {
		o.NumRPNs = 1
	}
	if o.RPNSpeed <= 0 {
		o.RPNSpeed = 1
	}
	if o.SchedCycle <= 0 {
		o.SchedCycle = core.DefaultCycle
	}
	if o.AcctCycle <= 0 {
		o.AcctCycle = 100 * time.Millisecond
	}
	if o.CreditWindow <= 0 {
		o.CreditWindow = max(core.DefaultCreditWindow, 2*o.AcctCycle)
	}
	if o.OutstandingWindow <= 0 {
		o.OutstandingWindow = max(core.DefaultOutstandingWindow, 2*o.AcctCycle)
	}
	if o.Duration <= 0 {
		o.Duration = 30 * time.Second
	}
	return o
}

// SubscriberRow is one measured line of a Table-1/Table-2-style result, all
// rates in generic requests per second over the measured window.
type SubscriberRow struct {
	ID          qos.SubscriberID
	Reservation qos.GRPS
	Offered     float64
	Served      float64
	Dropped     float64
	// Request counts (not generic units) over the window.
	OfferedReqs int
	ServedReqs  int
	DroppedReqs int
	// Response-time statistics over the window, arrival to completion
	// (§3.1 lists response time as an alternative QoS metric).
	MeanLatency time.Duration
	P95Latency  time.Duration
}

// Result carries everything an experiment needs to print its table or plot
// its figure.
type Result struct {
	// Rows is the per-subscriber summary in subscriber-ID order.
	Rows []SubscriberRow
	// Series holds per-subscriber completion samples (offsets measured from
	// the end of warmup) for deviation analysis.
	Series map[qos.SubscriberID]*metrics.Series
	// Observed holds per-subscriber usage as the RDN sees it — one sample
	// per accounting message, at its delivery time. Figure 3's deviation
	// statistic is computed over this series: with an accounting cycle
	// longer than the averaging interval, intervals see either no usage or
	// a whole cycle's worth, which is exactly the paper's ">100% at a 2 s
	// cycle under a 1 s interval" effect.
	Observed map[qos.SubscriberID]*metrics.Series
	// LatencyHist holds each subscriber's completion latencies over the
	// measurement window in the same histogram type the live dispatcher
	// exposes at /metrics, so simulated and measured quantiles are directly
	// comparable.
	LatencyHist map[qos.SubscriberID]*telemetry.Histogram
	// ServedReqPerSec is the cluster-wide request completion rate.
	ServedReqPerSec float64
	// RDNUtilization is the front end's CPU utilization over the window
	// (0 when no RDN model was configured).
	RDNUtilization float64
	// CacheHitRate is the cluster-wide page-cache hit fraction over the
	// whole run (0 when caches are disabled).
	CacheHitRate float64
	// Window is the measured duration.
	Window time.Duration

	// Settlement counters over the whole run (warmup included): every
	// dispatch the scheduler emitted settles exactly once — delivered (its
	// completion was charged), reclaimed (a crash lost it and its charge
	// was released back to the scheduler), or still in flight at run end.
	// DispatchedReqs == DeliveredReqs + ReclaimedReqs + InflightAtEnd is a
	// standing chaos invariant.
	DispatchedReqs int
	DeliveredReqs  int
	ReclaimedReqs  int
	InflightAtEnd  int
	// BalanceViolations counts per-tick audits that found a subscriber
	// balance below its clamp floor (−reservation×CreditWindow). Must be 0.
	BalanceViolations int
	// Whole-run admission counters (warmup included): every classified
	// arrival either entered a subscriber queue (AdmittedReqs) or was shed
	// at the queue limit (ShedReqs); QueuedAtEnd is what still waits in
	// queues when the run stops, and OrphanedReqs is what a scripted
	// subscriber removal dropped from its queue. Combined with the
	// settlement counters this closes the books over every offered request:
	//
	//	AdmittedReqs == DispatchedReqs + QueuedAtEnd + OrphanedReqs
	//	AdmittedReqs + ShedReqs == DeliveredReqs + ReclaimedReqs + ShedReqs +
	//	                           InflightAtEnd + QueuedAtEnd + OrphanedReqs
	AdmittedReqs int
	ShedReqs     int
	QueuedAtEnd  int
	OrphanedReqs int
	// AdmissionLog is every scripted admission event's outcome in schedule
	// order; Accepted/Rejected count applied and refused events. Empty when
	// the run had no admission schedule.
	AdmissionLog      []AdmissionOutcome
	AdmissionAccepted int
	AdmissionRejected int
	// NodeWeights samples each node's scheduler admission weight once per
	// accounting cycle (offsets from the end of warmup; warmup samples are
	// negative). The overload drill asserts a recovered node's slow-start
	// ramp is monotone on this series.
	NodeWeights map[core.NodeID]*metrics.Series
	// NodeDispatches records one unit per dispatch decision at its decision
	// time, per node — the recovered node's dispatch share over time.
	NodeDispatches map[core.NodeID]*metrics.Series
	// Fault reports the injected plan's active window relative to the
	// measured window; nil when the run had no fault plan.
	Fault *FaultReport
}

// FaultReport locates the fault plan's active span inside the measured
// window: offsets from the end of warmup, unclipped (Start may be negative
// when faults began during warmup; End may exceed Window).
type FaultReport struct {
	Start time.Duration
	End   time.Duration
}

// PhaseDeviation is one subscriber's deviation statistic split around the
// fault plan's active window. A phase too short to hold one full averaging
// interval has its OK flag false and a zero value.
type PhaseDeviation struct {
	Pre, During, Post       float64
	PreOK, DuringOK, PostOK bool
}

// PhaseDeviation computes the served-rate deviation statistic separately
// over the pre-fault, during-fault and post-recovery windows of the run —
// the instrument that shows a guarantee holding before a crash, degrading
// (or not) while it is active, and recovering afterwards. It errors when
// the run had no fault plan or the subscriber is unknown.
func (r *Result) PhaseDeviation(id qos.SubscriberID, interval time.Duration) (PhaseDeviation, error) {
	if r.Fault == nil {
		return PhaseDeviation{}, errors.New("cluster: run had no fault plan")
	}
	s, ok := r.Series[id]
	if !ok {
		return PhaseDeviation{}, fmt.Errorf("cluster: no series for subscriber %q", id)
	}
	row, _ := r.Row(id)
	res := row.Reservation
	from := min(max(r.Fault.Start, 0), r.Window)
	to := min(max(r.Fault.End, 0), r.Window)
	var pd PhaseDeviation
	if d, err := s.DeviationBetween(res, 0, from, interval); err == nil {
		pd.Pre, pd.PreOK = d, true
	}
	if d, err := s.DeviationBetween(res, from, to, interval); err == nil {
		pd.During, pd.DuringOK = d, true
	}
	if d, err := s.DeviationBetween(res, to, r.Window, interval); err == nil {
		pd.Post, pd.PostOK = d, true
	}
	return pd, nil
}

// Row returns the row for a subscriber ID.
func (r *Result) Row(id qos.SubscriberID) (SubscriberRow, bool) {
	for _, row := range r.Rows {
		if row.ID == id {
			return row, true
		}
	}
	return SubscriberRow{}, false
}

// Deviation computes the deviation-from-reservation statistic over the
// subscriber's actual completion series: mean |served rate − reservation| /
// reservation across averaging intervals of the given length.
func (r *Result) Deviation(id qos.SubscriberID, interval time.Duration) (float64, error) {
	return r.deviation(r.Series, id, interval)
}

// ObservedDeviation computes the Figure-3 statistic over the usage series
// the RDN observes through accounting messages.
func (r *Result) ObservedDeviation(id qos.SubscriberID, interval time.Duration) (float64, error) {
	return r.deviation(r.Observed, id, interval)
}

func (r *Result) deviation(set map[qos.SubscriberID]*metrics.Series, id qos.SubscriberID, interval time.Duration) (float64, error) {
	s, ok := set[id]
	if !ok {
		return 0, fmt.Errorf("cluster: no series for subscriber %q", id)
	}
	row, _ := r.Row(id)
	return s.DeviationFromReservation(row.Reservation, r.Window, interval)
}

// MeanObservedDeviation averages ObservedDeviation across all subscribers —
// the "overall average among all subscribers" the paper plots.
func (r *Result) MeanObservedDeviation(interval time.Duration) (float64, error) {
	if len(r.Rows) == 0 {
		return 0, errors.New("cluster: no rows")
	}
	var sum float64
	for _, row := range r.Rows {
		d, err := r.ObservedDeviation(row.ID, interval)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum / float64(len(r.Rows)), nil
}

// Run executes one experiment on a fresh virtual-time engine: the simulator
// loop with one front end.
func Run(opts Options) (*Result, error) {
	res, err := RunFrontier(FrontierOptions{Options: opts})
	if err != nil {
		return nil, err
	}
	return &res.Result, nil
}

// localityKey hashes a page's host and directory so URLs "in the same
// proximity" (§3.6) share an affinity value. Zero is reserved for
// "no affinity", so the hash is nudged off zero.
func localityKey(host, path string) uint64 {
	dir := path
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		dir = dir[:i+1]
	}
	h := fnv.New64a()
	// Hash writes cannot fail.
	_, _ = h.Write([]byte(host))
	_, _ = h.Write([]byte(dir))
	k := h.Sum64()
	if k == 0 {
		k = 1
	}
	return k
}
