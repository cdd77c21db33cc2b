package cluster

import (
	"fmt"
	"time"

	"gage/internal/core"
	"gage/internal/qos"
	"gage/internal/workload"
)

// This file holds the preset experiment configurations that regenerate the
// paper's evaluation section (§4). Absolute capacities are configured to the
// paper's testbed scale so the printed rows are directly comparable; the
// claims under test are the shapes — reservations met, spare proportional to
// reservations, deviation growing with the accounting cycle, linear
// scalability, small QoS overhead.

// mustConstSource builds a constant-rate source of fixed-cost requests.
func mustConstSource(sub qos.SubscriberID, host string, rate float64, cost qos.Vector) workload.Source {
	arr, err := workload.NewConstantRate(rate)
	if err != nil {
		panic(fmt.Sprintf("cluster: preset rate %v: %v", rate, err))
	}
	return workload.Source{
		Subscriber: sub,
		Gen:        workload.NewFixed(host, "/index.html", cost),
		Arrivals:   arr,
	}
}

// Table1 reproduces §4.1's performance-isolation experiment: three sites
// with reservations 250/150/50 GRPS and offered loads 259.4/161.1/390.3 on a
// cluster of eight RPNs whose aggregate capacity is ≈786 GRPS. site1 and
// site2 must be served at their full offered load; site3 absorbs all spare
// capacity and drops the rest.
func Table1() (*Result, error) { return Run(table1Options()) }

func table1Options() Options {
	generic := qos.GenericCost()
	return Options{
		Subscribers: []qos.Subscriber{
			{ID: "site1", Hosts: []string{"www.site1.example"}, Reservation: 250, QueueLimit: 128},
			{ID: "site2", Hosts: []string{"www.site2.example"}, Reservation: 150, QueueLimit: 128},
			{ID: "site3", Hosts: []string{"www.site3.example"}, Reservation: 50, QueueLimit: 128},
		},
		Sources: []workload.Source{
			mustConstSource("site1", "www.site1.example", 259.4, generic),
			mustConstSource("site2", "www.site2.example", 161.1, generic),
			mustConstSource("site3", "www.site3.example", 390.3, generic),
		},
		NumRPNs:  8,
		RPNSpeed: 0.9825, // 8 × 98.25 GRPS ≈ 786 GRPS aggregate
		Warmup:   10 * time.Second,
		Duration: 40 * time.Second,
	}
}

// Table2 reproduces §4.1's spare-resource-allocation experiment: two sites,
// both overloaded, reservations 250/200; the spare splits in proportion to
// the reservations, and site1's share is capped by its own demand.
func Table2() (*Result, error) { return Run(table2Options()) }

func table2Options() Options {
	generic := qos.GenericCost()
	return Options{
		Subscribers: []qos.Subscriber{
			{ID: "site1", Hosts: []string{"www.site1.example"}, Reservation: 250, QueueLimit: 128},
			{ID: "site2", Hosts: []string{"www.site2.example"}, Reservation: 200, QueueLimit: 128},
		},
		Sources: []workload.Source{
			mustConstSource("site1", "www.site1.example", 424.6, generic),
			mustConstSource("site2", "www.site2.example", 364.5, generic),
		},
		NumRPNs:  8,
		RPNSpeed: 0.9558, // ≈765 GRPS aggregate, the paper's served total
		Warmup:   10 * time.Second,
		Duration: 40 * time.Second,
	}
}

// Figure3Point is one data point of Figure 3: the mean observed deviation
// from the ideal reservation for an accounting cycle and averaging interval.
type Figure3Point struct {
	AcctCycle time.Duration
	Interval  time.Duration
	// Deviation is a fraction: 0.08 = 8 %.
	Deviation float64
}

// Figure3Cycles are the accounting cycles the paper sweeps.
func Figure3Cycles() []time.Duration {
	return []time.Duration{
		50 * time.Millisecond,
		100 * time.Millisecond,
		500 * time.Millisecond,
		2 * time.Second,
	}
}

// Figure3Intervals are the averaging intervals on Figure 3's x-axis.
func Figure3Intervals() []time.Duration {
	return []time.Duration{
		1 * time.Second, 2 * time.Second, 4 * time.Second,
		6 * time.Second, 8 * time.Second, 10 * time.Second,
	}
}

// Figure3 reproduces the deviation-from-ideal-reservation study. For each
// accounting cycle it runs three fully subscribed sites at exactly their
// reservations and computes the deviation of the usage the RDN observes
// (through accounting messages) over each averaging interval. When
// realistic is true, the constant synthetic workload is replaced with the
// SPECweb99-like mix, reproducing the paper's trace-driven variant.
func Figure3(cycles, intervals []time.Duration, realistic bool) ([]Figure3Point, error) {
	var points []Figure3Point
	for _, cycle := range cycles {
		res, err := figure3Run(cycle, realistic)
		if err != nil {
			return nil, fmt.Errorf("cluster: figure 3 cycle %v: %w", cycle, err)
		}
		for _, iv := range intervals {
			d, err := res.MeanObservedDeviation(iv)
			if err != nil {
				return nil, fmt.Errorf("cluster: figure 3 cycle %v interval %v: %w", cycle, iv, err)
			}
			points = append(points, Figure3Point{AcctCycle: cycle, Interval: iv, Deviation: d})
		}
	}
	return points, nil
}

func figure3Run(cycle time.Duration, realistic bool) (*Result, error) {
	// Three fully subscribed sites offered slightly more than they reserve:
	// the ideal per-site usage is then exactly the reservation. Arrivals
	// are Poisson (an aggregate of independent clients), and the scheduler
	// runs with the reported-usage gate, so QoS stability genuinely depends
	// on the accounting-cycle length — the effect Figure 3 measures.
	const res = qos.GRPS(100)
	subs := []qos.Subscriber{
		{ID: "site1", Hosts: []string{"www.site1.example"}, Reservation: res, QueueLimit: 256},
		{ID: "site2", Hosts: []string{"www.site2.example"}, Reservation: res, QueueLimit: 256},
		{ID: "site3", Hosts: []string{"www.site3.example"}, Reservation: res, QueueLimit: 256},
	}
	unitRes := qos.Resource(0)
	sources := make([]workload.Source, 0, len(subs))
	for i, s := range subs {
		var gen workload.Generator
		rate := float64(res) * 1.05
		if realistic {
			// The SPECweb99-like mix is CPU-bound on the RPNs, so served
			// GRPS is measured in CPU units — the paper's request-count
			// convention — and the rate is tuned so the mean offered load
			// in those units is 1.05× the reservation.
			unitRes = qos.CPU
			mean := meanCPUUnits(workload.NewSPECWeb99(s.Hosts[0], int64(100+i)), 4096)
			rate /= mean
			gen = workload.NewSPECWeb99(s.Hosts[0], int64(100+i))
		} else {
			// The paper's constant synthetic workload: every request costs
			// one generic request (its "6 KB file" fixed workload).
			gen = workload.NewFixed(s.Hosts[0], "/fixed.html", qos.GenericCost())
		}
		arr, err := workload.NewPoisson(rate, int64(7+i))
		if err != nil {
			return nil, err
		}
		sources = append(sources, workload.Source{Subscriber: s.ID, Gen: gen, Arrivals: arr})
	}
	return Run(Options{
		Subscribers: subs,
		Sources:     sources,
		NumRPNs:     3,
		// Paper-faithful staleness: the gate and the node-capacity
		// bookkeeping both learn only from accounting messages.
		Gate:                 core.GateReported,
		DisableCapacityDrain: true,
		AcctCycle:            cycle,
		UnitResource:         unitRes,
		// A deep credit floor so a burst's debt is never forgiven by the
		// balance clamp. The outstanding window tracks the feedback period
		// (the RDN cannot manage node load tighter than it hears back) with
		// a floor that lets heavy-tailed requests pipeline.
		CreditWindow:      8 * time.Second,
		OutstandingWindow: max(2*cycle, 400*time.Millisecond),
		Warmup:            5 * time.Second,
		Duration:          60 * time.Second,
	})
}

// meanCPUUnits estimates a generator's mean request cost in CPU-denominated
// generic units.
func meanCPUUnits(gen workload.Generator, n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += gen.Next().Cost.UnitsOf(qos.CPU)
	}
	return sum / float64(n)
}

// ScalabilityPoint is one cluster size of the §4.3 throughput study.
type ScalabilityPoint struct {
	NumRPNs int
	// WithGage and WithoutGage are served requests/sec with the QoS layer's
	// per-request overhead enabled and disabled.
	WithGage    float64
	WithoutGage float64
}

// GagePerRequestOverhead is the QoS layer's per-request RPN cost measured in
// §4.2: second-leg connection setup (27.2 µs) plus five data-ACK packet
// pairs through the remapper (5 × (1.3+4.6) µs) = 56.7 µs.
const GagePerRequestOverhead = 56700 * time.Nanosecond

// Scalability reproduces §4.3: total throughput as the cluster grows from 1
// to maxRPNs nodes, with and without Gage's per-request overhead. The
// workload is the paper's 6 KB static page, making one nominal RPN sustain
// ≈540 requests/sec.
func Scalability(maxRPNs int) ([]ScalabilityPoint, error) {
	points := make([]ScalabilityPoint, 0, maxRPNs)
	for n := 1; n <= maxRPNs; n++ {
		with, err := scalabilityRun(n, GagePerRequestOverhead)
		if err != nil {
			return nil, fmt.Errorf("cluster: scalability n=%d with gage: %w", n, err)
		}
		without, err := scalabilityRun(n, 0)
		if err != nil {
			return nil, fmt.Errorf("cluster: scalability n=%d without gage: %w", n, err)
		}
		points = append(points, ScalabilityPoint{
			NumRPNs:     n,
			WithGage:    with.ServedReqPerSec,
			WithoutGage: without.ServedReqPerSec,
		})
	}
	return points, nil
}

func scalabilityRun(numRPNs int, overhead time.Duration) (*Result, error) {
	cost := workload.DefaultCostModel().Cost(workload.SixKBPage)
	perRPN := 1 / cost.CPUTime.Seconds() // CPU-bound capacity, ≈540/s
	offered := perRPN * float64(numRPNs) * 1.15
	return Run(Options{
		Subscribers: []qos.Subscriber{{
			ID:    "site1",
			Hosts: []string{"www.site1.example"},
			// Entitled to the whole cluster, in the workload's own units.
			Reservation: qos.GRPS(offered * cost.GenericUnits()),
			QueueLimit:  2048,
		}},
		Sources: []workload.Source{
			mustConstSource("site1", "www.site1.example", offered, cost),
		},
		NumRPNs:     numRPNs,
		RPNOverhead: overhead,
		Warmup:      5 * time.Second,
		Duration:    20 * time.Second,
	})
}

// LocalityResult contrasts content-aware dispatching with pure least-loaded
// dispatch on a disk-bound workload (§3.6's effective-capacity claim).
type LocalityResult struct {
	// ServedWith and ServedWithout are requests/sec with and without
	// content-aware (affinity) dispatch.
	ServedWith, ServedWithout float64
	// HitRateWith and HitRateWithout are the page-cache hit fractions.
	HitRateWith, HitRateWithout float64
}

// LocalityStudy quantifies §3.6's design note: dispatching URL pages in the
// same proximity to the same RPN raises the page-cache hit rate, avoiding
// disk I/O and increasing the cluster's effective processing capacity. Four
// RPNs with small caches serve a disk-bound static mix spread over many
// directories; the study runs with and without affinity dispatch.
func LocalityStudy() (*LocalityResult, error) {
	run := func(affinity bool) (*Result, error) {
		const sites = 3
		subs := make([]qos.Subscriber, 0, sites)
		sources := make([]workload.Source, 0, sites)
		// Disk-heavy pages: a miss costs 9 ms of disk channel, so one RPN
		// sustains ≈110 misses/sec but ≈950 cached requests/sec.
		cost := qos.Vector{CPUTime: time.Millisecond, DiskTime: 9 * time.Millisecond, NetBytes: 6544}
		for i := 0; i < sites; i++ {
			id := qos.SubscriberID(fmt.Sprintf("site%d", i+1))
			host := fmt.Sprintf("www.site%d.example", i+1)
			subs = append(subs, qos.Subscriber{
				ID: id, Hosts: []string{host}, Reservation: 200, QueueLimit: 256,
			})
			arr, err := workload.NewPoisson(330, int64(40+i))
			if err != nil {
				return nil, err
			}
			sources = append(sources, workload.Source{
				Subscriber: id,
				Gen:        workload.NewSPECWeb99(host, int64(50+i)),
				Arrivals:   arr,
			})
		}
		// SPECweb99 page sizes vary; pin the disk-bound cost by overriding
		// per-request costs through a fixed-cost wrapper.
		for i := range sources {
			sources[i].Gen = fixedCost{inner: sources[i].Gen, cost: cost}
		}
		return Run(Options{
			Subscribers:      subs,
			Sources:          sources,
			NumRPNs:          4,
			UnitResource:     qos.Disk,
			LocalityDispatch: affinity,
			CacheEntries:     12, // per node: far below the 108 distinct pages
			Warmup:           5 * time.Second,
			Duration:         30 * time.Second,
		})
	}
	with, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("cluster: locality with affinity: %w", err)
	}
	without, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("cluster: locality without affinity: %w", err)
	}
	return &LocalityResult{
		ServedWith:     with.ServedReqPerSec,
		ServedWithout:  without.ServedReqPerSec,
		HitRateWith:    with.CacheHitRate,
		HitRateWithout: without.CacheHitRate,
	}, nil
}

// fixedCost overrides a generator's per-request cost while keeping its
// host/path structure (the cache key space).
type fixedCost struct {
	inner workload.Generator
	cost  qos.Vector
}

func (f fixedCost) Next() workload.Request {
	r := f.inner.Next()
	r.Cost = f.cost
	return r
}

// ProjectionRow is one configuration of the §4.3 front-end capacity
// projection.
type ProjectionRow struct {
	// Config names the front-end configuration.
	Config string
	// MaxReqPerSec is the projected request rate at 100 % RDN CPU.
	MaxReqPerSec float64
	// MaxRPNs is how many ≈540-req/s back ends that rate keeps busy.
	MaxRPNs int
}

// RDNProjection reproduces the closing §4.3 estimate: what one front end
// could sustain (paper: "conservatively ... around 14,000 to 15,000
// requests/sec; alternatively up to 24 RPNs") once the interrupt overload
// is removed by an intelligent NIC, and additionally once the secondary-RDN
// tier (§3.2) takes over first-leg setup and classification.
func RDNProjection() []ProjectionRow {
	m := DefaultRDNModel()
	perRPN := 540.0
	base := m.RequestCost(0) // no interrupt overload
	rows := []ProjectionRow{
		{
			Config:       "prototype (interrupt-limited)",
			MaxReqPerSec: saturationRate(m),
		},
		{
			Config:       "intelligent NIC (no interrupt overload)",
			MaxReqPerSec: 1 / base.Seconds(),
		},
		{
			Config: "intelligent NIC + secondary RDN tier",
			// Setup and classification offloaded; the primary only bridges.
			MaxReqPerSec: 1 / (time.Duration(m.PacketsPerRequest) * m.PerPacketForward).Seconds(),
		},
	}
	for i := range rows {
		rows[i].MaxRPNs = int(rows[i].MaxReqPerSec / perRPN)
	}
	return rows
}

// saturationRate finds the request rate where the interrupt-inflated
// per-request cost saturates the front-end CPU.
func saturationRate(m RDNModel) float64 {
	lo, hi := 100.0, 1e6
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		util := mid * m.RequestCost(mid*float64(m.PacketsPerRequest)).Seconds()
		if util < 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// UtilizationPoint is one point of the §4.3 RDN CPU-utilization curve.
type UtilizationPoint struct {
	OfferedReqPerSec float64
	ServedReqPerSec  float64
	RDNUtilization   float64
}

// RDNUtilizationCurve reproduces the §4.3 front-end saturation study: RDN
// CPU utilization versus request throughput, growing close to linearly up
// to ≈4400 requests/sec and then sharply as the overloaded network
// subsystem inflates interrupt-handling time.
func RDNUtilizationCurve(rates []float64) ([]UtilizationPoint, error) {
	model := DefaultRDNModel()
	cost := workload.DefaultCostModel().Cost(workload.SixKBPage)
	var points []UtilizationPoint
	for _, rate := range rates {
		numRPNs := int(rate/500) + 2 // back-ends never the bottleneck
		res, err := Run(Options{
			Subscribers: []qos.Subscriber{{
				ID:          "site1",
				Hosts:       []string{"www.site1.example"},
				Reservation: qos.GRPS(rate * cost.GenericUnits()),
				QueueLimit:  4096,
			}},
			Sources: []workload.Source{
				mustConstSource("site1", "www.site1.example", rate, cost),
			},
			NumRPNs:  numRPNs,
			RDN:      &model,
			Warmup:   2 * time.Second,
			Duration: 10 * time.Second,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: utilization at %v req/s: %w", rate, err)
		}
		points = append(points, UtilizationPoint{
			OfferedReqPerSec: rate,
			ServedReqPerSec:  res.ServedReqPerSec,
			RDNUtilization:   res.RDNUtilization,
		})
	}
	return points, nil
}
