// Package workload generates the request streams used to drive Gage: the
// paper's constant synthetic workload (fixed-size pages), a SPECweb99-like
// realistic workload (the paper's trace substitute), and CGI-style mixes
// with heterogeneous per-request resource costs.
//
// Generators are deterministic given a seed, so experiments are exactly
// reproducible. Load generation follows the open-loop constant-rate model of
// Banga & Druschel that the paper cites: clients issue requests at a fixed
// rate regardless of completions.
//
// There is one arrival generator: Stream, a lazy merge of Sources in
// (arrival, ID) order that yields a request at a time, so a consumer that
// pulls — the simulator's engine feed — never holds the trace;
// Source.Schedule is a drain of it for callers that want the slice. Because
// the merge draws from the sources in arrival order, not source by source,
// every Source needs a Generator, an Arrivals and random state of its own.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"gage/internal/qos"
)

// Request is one web access as seen by the cluster: its classification key
// (host, path) and its true resource cost. The true cost is known to the
// simulator but *not* to the RDN, which must predict it from accounting
// feedback — exactly the information asymmetry the paper studies.
type Request struct {
	// ID is a unique request identifier assigned by the arrival process.
	ID uint64
	// Subscriber is the charging entity the request belongs to.
	Subscriber qos.SubscriberID
	// Host is the virtual-host part of the URL used for classification.
	Host string
	// Path is the URL path.
	Path string
	// Cost is the true resource consumption of serving this request.
	Cost qos.Vector
	// Arrival is the request's arrival offset from the start of the run.
	Arrival time.Duration
}

// GenericUnits returns the request's cost in generic-request units.
func (r Request) GenericUnits() float64 { return r.Cost.GenericUnits() }

// Generator produces a stream of request templates (host, path, cost).
type Generator interface {
	// Next returns the next request template. Implementations fill Host,
	// Path and Cost; the arrival process assigns ID, Subscriber and Arrival.
	Next() Request
}

// Fixed emits identical requests — the paper's constant synthetic workload.
type Fixed struct {
	host string
	path string
	cost qos.Vector
}

// NewFixed returns a generator emitting one fixed request shape.
func NewFixed(host, path string, cost qos.Vector) *Fixed {
	return &Fixed{host: host, path: path, cost: cost}
}

var _ Generator = (*Fixed)(nil)

// Next implements Generator.
func (f *Fixed) Next() Request {
	return Request{Host: f.host, Path: f.path, Cost: f.cost}
}

// NewGeneric returns a Fixed generator whose every request costs exactly one
// generic request unit (10 ms CPU, 10 ms disk, 2,000 bytes).
func NewGeneric(host string) *Fixed {
	return NewFixed(host, "/index.html", qos.GenericCost())
}

// CostModel maps a page size to a resource-cost vector. The defaults are
// calibrated so that a 6 KB static page — the paper's synthetic workload —
// costs ≈1.85 ms of CPU, making a single simulated RPN sustain ≈540
// requests/sec, the capacity the paper measures in §4.3.
type CostModel struct {
	// CPUFixed is per-request CPU time independent of size.
	CPUFixed time.Duration
	// CPUPerKB is additional CPU time per KB of page size.
	CPUPerKB time.Duration
	// DiskFixed is per-request disk-channel time (seek + metadata).
	DiskFixed time.Duration
	// DiskPerKB is disk transfer time per KB.
	DiskPerKB time.Duration
	// HeaderBytes is protocol overhead added to the page size on the wire.
	HeaderBytes int64
}

// DefaultCostModel returns the calibrated static-content cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		CPUFixed:    1 * time.Millisecond,
		CPUPerKB:    141 * time.Microsecond,
		DiskFixed:   200 * time.Microsecond,
		DiskPerKB:   100 * time.Microsecond,
		HeaderBytes: 400,
	}
}

// Cost returns the resource vector for serving a page of the given size.
func (m CostModel) Cost(pageBytes int64) qos.Vector {
	kb := float64(pageBytes) / 1024
	return qos.Vector{
		CPUTime:  m.CPUFixed + time.Duration(kb*float64(m.CPUPerKB)),
		DiskTime: m.DiskFixed + time.Duration(kb*float64(m.DiskPerKB)),
		NetBytes: pageBytes + m.HeaderBytes,
	}
}

// SixKBPage is the page size of the paper's constant synthetic workload.
const SixKBPage = 6 * 1024

// NewStaticPage returns a Fixed generator for a static page of the given
// size, costed with the default model.
func NewStaticPage(host string, pageBytes int64) *Fixed {
	return NewFixed(host, fmt.Sprintf("/static/%d.html", pageBytes), DefaultCostModel().Cost(pageBytes))
}

// SPECweb99 class structure: four file classes spanning 100 B – 900 KB with
// the published access frequencies, nine discrete sizes per class.
var (
	specClassProb = [4]float64{0.35, 0.50, 0.14, 0.01}
	specClassBase = [4]int64{100, 1_000, 10_000, 100_000}
)

// SPECWeb99 generates a SPECweb99-like static-content mix: file sizes are
// drawn from the benchmark's four classes (35 % / 50 % / 14 % / 1 %), nine
// sizes per class, with a mild within-class popularity skew. It substitutes
// for the paper's SPECWeb99-derived trace.
type SPECWeb99 struct {
	host  string
	rng   *rand.Rand
	model CostModel
}

// NewSPECWeb99 returns a seeded SPECweb99-like generator for one host.
func NewSPECWeb99(host string, seed int64) *SPECWeb99 {
	return &SPECWeb99{host: host, rng: rand.New(rand.NewSource(seed)), model: DefaultCostModel()}
}

var _ Generator = (*SPECWeb99)(nil)

// Next implements Generator.
func (s *SPECWeb99) Next() Request {
	class := 3
	p := s.rng.Float64()
	acc := 0.0
	for i, cp := range specClassProb {
		acc += cp
		if p < acc {
			class = i
			break
		}
	}
	// Within a class, SPECweb99 accesses file index 1..9 with a peak around
	// the middle sizes; approximate with a triangular distribution.
	idx := 1 + (s.rng.Intn(9)+s.rng.Intn(9))/2
	size := specClassBase[class] * int64(idx)
	return Request{
		Host: s.host,
		Path: fmt.Sprintf("/class%d/file%d.html", class, idx),
		Cost: s.model.Cost(size),
	}
}

// CGIMix mixes cheap static pages with expensive dynamic (CGI) requests,
// exercising the accounting model's claim (§3.5) that per-process accounting
// handles CGI programs with no extra mechanism, and stressing the RDN's
// per-request cost prediction with high variance.
type CGIMix struct {
	host        string
	rng         *rand.Rand
	cgiFraction float64
	static      qos.Vector
	cgi         qos.Vector
}

// NewCGIMix returns a seeded mix generator. cgiFraction is the probability
// that a request is dynamic.
func NewCGIMix(host string, seed int64, cgiFraction float64, static, cgi qos.Vector) *CGIMix {
	return &CGIMix{
		host:        host,
		rng:         rand.New(rand.NewSource(seed)),
		cgiFraction: cgiFraction,
		static:      static,
		cgi:         cgi,
	}
}

var _ Generator = (*CGIMix)(nil)

// Next implements Generator.
func (c *CGIMix) Next() Request {
	if c.rng.Float64() < c.cgiFraction {
		return Request{Host: c.host, Path: "/cgi-bin/app", Cost: c.cgi}
	}
	return Request{Host: c.host, Path: "/static/page.html", Cost: c.static}
}

// Arrivals produces arrival instants for an open-loop load source.
type Arrivals interface {
	// NextGap returns the time until the next arrival.
	NextGap() time.Duration
	// Rewind restarts the process: the gaps that follow are the ones a
	// freshly constructed process would produce. A Stream counts a source's
	// arrivals in one pass and generates them in a second.
	Rewind()
}

// ConstantRate spaces arrivals exactly 1/rate apart — the paper's client
// model ("issue requests to Gage at a constant rate").
type ConstantRate struct {
	gap time.Duration
}

// NewConstantRate returns a constant-rate arrival process of rate req/sec.
func NewConstantRate(perSecond float64) (*ConstantRate, error) {
	if perSecond <= 0 {
		return nil, fmt.Errorf("workload: rate must be positive, got %v", perSecond)
	}
	return &ConstantRate{gap: time.Duration(float64(time.Second) / perSecond)}, nil
}

var _ Arrivals = (*ConstantRate)(nil)

// NextGap implements Arrivals.
func (c *ConstantRate) NextGap() time.Duration { return c.gap }

// Rewind implements Arrivals; a constant rate has no state to restart.
func (c *ConstantRate) Rewind() {}

// Poisson spaces arrivals with exponential gaps of the given mean rate.
type Poisson struct {
	mean float64 // mean gap in seconds
	seed int64
	rng  *rand.Rand
}

// NewPoisson returns a seeded Poisson arrival process of rate req/sec.
func NewPoisson(perSecond float64, seed int64) (*Poisson, error) {
	if perSecond <= 0 {
		return nil, fmt.Errorf("workload: rate must be positive, got %v", perSecond)
	}
	return &Poisson{mean: 1 / perSecond, seed: seed, rng: rand.New(rand.NewSource(seed))}, nil
}

var _ Arrivals = (*Poisson)(nil)

// NextGap implements Arrivals.
func (p *Poisson) NextGap() time.Duration {
	return time.Duration(p.rng.ExpFloat64() * p.mean * float64(time.Second))
}

// Rewind implements Arrivals by re-seeding the generator.
func (p *Poisson) Rewind() { p.rng.Seed(p.seed) }

// Source couples a subscriber, a request generator and an arrival process:
// one client load stream. Sources that are scheduled or streamed together
// must not share a Generator, an Arrivals or a random source between them:
// a Stream draws from each in arrival order, not source by source, so only
// unshared state gives every source the sequence it would produce alone.
type Source struct {
	// Subscriber is the target charging entity.
	Subscriber qos.SubscriberID
	// Gen produces request shapes.
	Gen Generator
	// Arrivals paces the stream.
	Arrivals Arrivals
}

// Schedule materializes the source's arrivals over [0, run) as a slice of
// requests with IDs and arrival stamps assigned, starting from firstID. It
// returns the requests and the next free ID. It is a drain of the source's
// Stream, so the arrival process is rewound first: scheduling a source
// twice repeats its arrival instants (its generator carries on).
func (s Source) Schedule(run time.Duration, firstID uint64) ([]Request, uint64) {
	st := NewStream([]Source{s}, run, firstID)
	var out []Request
	if st.Len() > 0 {
		out = make([]Request, 0, st.Len())
	}
	var r Request
	for st.next(&r) {
		out = append(out, r)
	}
	return out, firstID + uint64(st.Len())
}
