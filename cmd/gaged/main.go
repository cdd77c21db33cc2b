// Command gaged runs the Gage front-end request distribution node (RDN) as
// a live TCP dispatcher: it classifies incoming HTTP requests by virtual
// host, enforces per-subscriber GRPS reservations with the credit-based
// scheduler, load-balances across the configured back ends, and polls their
// accounting reports to keep the balances honest.
//
// Usage:
//
//	gaged -listen :8080 -config cluster.json
//
// The JSON config:
//
//	{
//	  "subscribers": [
//	    {"id": "site1", "hosts": ["www.site1.example"], "reservationGRPS": 250, "queueLimit": 128, "group": "tier1"}
//	  ],
//	  "backends": [
//	    {"id": 1, "addr": "127.0.0.1:9001"}
//	  ],
//	  "acctCycleMillis": 100,
//	  "schedCycleMillis": 10,
//	  "dialTimeoutMillis": 2000,
//	  "queueTimeoutMillis": 30000,
//	  "retryBackoffMillis": 25,
//	  "maxConns": 1024,
//	  "drainTimeoutMillis": 5000,
//	  "clientIdleTimeoutMillis": 60000,
//	  "backendTimeoutMillis": 60000,
//	  "breakerThreshold": 3,
//	  "breakerCooldownMillis": 1000,
//	  "slowStartCycles": 4,
//	  "traceSampleEvery": 100,
//	  "traceBuffer": 256,
//	  "cycleRingSize": 1024,
//	  "cycleLog": "/var/log/gage/cycles.jsonl",
//	  "conformanceWindowMillis": 10000,
//	  "eventRingSize": 4096,
//	  "eventLog": "/var/log/gage/events.jsonl",
//	  "exemplarsPerSpan": 4,
//	  "adminListen": "127.0.0.1:8081",
//	  "admitHeadroom": 0.9,
//	  "rdnCount": 3,
//	  "rdnId": 1,
//	  "leaseMillis": 1000,
//	  "leaseListen": "127.0.0.1:7070",
//	  "leaseAddr": "127.0.0.1:7070"
//	}
//
// With rdnCount >= 2 the instance joins a multi-RDN front-end tier: the
// instance with leaseListen set hosts the lease table, every instance dials
// leaseAddr, heartbeats at a third of leaseMillis, and serves only the
// tenant groups the table currently assigns it (see cmd/gaged/frontier.go).
//
// Every millisecond/count knob is optional: 0 or absent means the library
// default applies; negative values are configuration errors (except
// slowStartCycles, where -1 disables the recovery ramp). With -pprof ADDR
// the standard net/http/pprof debug server is served on ADDR.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"gage/internal/core"
	"gage/internal/dispatch"
	"gage/internal/qos"
)

// fileConfig is the on-disk configuration format.
type fileConfig struct {
	Subscribers []struct {
		ID              string   `json:"id"`
		Hosts           []string `json:"hosts"`
		ReservationGRPS float64  `json:"reservationGRPS"`
		QueueLimit      int      `json:"queueLimit"`
		// Group is the tenant tier the subscriber schedules under; empty
		// means the default group (flat, paper-exact scheduling).
		Group string `json:"group"`
	} `json:"subscribers"`
	Backends []struct {
		ID   int    `json:"id"`
		Addr string `json:"addr"`
	} `json:"backends"`
	AcctCycleMillis    int `json:"acctCycleMillis"`
	SchedCycleMillis   int `json:"schedCycleMillis"`
	DialTimeoutMillis  int `json:"dialTimeoutMillis"`
	QueueTimeoutMillis int `json:"queueTimeoutMillis"`
	RetryBackoffMillis int `json:"retryBackoffMillis"`
	// Overload control and graceful degradation.
	MaxConns                int `json:"maxConns"`
	DrainTimeoutMillis      int `json:"drainTimeoutMillis"`
	ClientIdleTimeoutMillis int `json:"clientIdleTimeoutMillis"`
	BackendTimeoutMillis    int `json:"backendTimeoutMillis"`
	BreakerThreshold        int `json:"breakerThreshold"`
	BreakerCooldownMillis   int `json:"breakerCooldownMillis"`
	// SlowStartCycles is the recovery ramp length in accounting cycles;
	// -1 disables the ramp (recovered nodes rejoin at full weight).
	SlowStartCycles int `json:"slowStartCycles"`
	// Telemetry: every Nth request is lifecycle-traced (0 = tracing off),
	// with the most recent TraceBuffer completed traces retained for the
	// /_gage/trace endpoint.
	TraceSampleEvery int `json:"traceSampleEvery"`
	TraceBuffer      int `json:"traceBuffer"`
	// Flight recorder: CycleRingSize retains that many scheduler cycle
	// records for /_gage/cycles (0 = recording off unless cycleLog is set);
	// CycleLog appends every record as JSONL to the named file;
	// ConformanceWindowMillis is the auditor's slow burn-rate window.
	CycleRingSize           int    `json:"cycleRingSize"`
	CycleLog                string `json:"cycleLog"`
	ConformanceWindowMillis int    `json:"conformanceWindowMillis"`
	// Unified event bus: EventRingSize retains that many observability
	// events for /_gage/events (0 = bus off unless eventLog is set);
	// EventLog appends every event as JSONL to the named file;
	// ExemplarsPerSpan is how many recent sampled trace IDs the auditor
	// attaches to each violation span it opens.
	EventRingSize    int    `json:"eventRingSize"`
	EventLog         string `json:"eventLog"`
	ExemplarsPerSpan int    `json:"exemplarsPerSpan"`
	// AdminListen serves the admission control plane (/_gage/admin/*) on a
	// separate listener so operator traffic never competes with client
	// traffic; empty disables the admin API. AdmitHeadroom caps the
	// committed-reservation fraction of enabled capacity the admission
	// policy will grant, in (0, 1]; 0 means the policy default 1.0.
	AdminListen   string  `json:"adminListen"`
	AdmitHeadroom float64 `json:"admitHeadroom"`
	// The multi-RDN tier section (see frontier.go).
	tierFileConfig
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gaged:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", ":8080", "address to listen on")
		config    = flag.String("config", "", "path to the cluster JSON config (required)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (disabled when empty)")
	)
	flag.Parse()
	if *config == "" {
		return fmt.Errorf("-config is required")
	}
	raw, err := os.ReadFile(*config)
	if err != nil {
		return err
	}
	fc, err := parseFile(raw)
	if err != nil {
		return fmt.Errorf("parse %s: %w", *config, err)
	}
	cfg, err := fc.dispatchConfig()
	if err != nil {
		return fmt.Errorf("parse %s: %w", *config, err)
	}
	tcfg := fc.tierFileConfig
	var tr *tierRunner
	if tcfg.enabled() {
		tr = newTierRunner(tcfg, subscriberGroups(cfg.Subscribers))
		cfg.Owns = tr.owns
		cfg.Fence = tr.owns
		// Salt trace IDs and stamp bus events with this instance's id so
		// per-RDN event logs merge attributably (gagetrace explain).
		cfg.RDN = tcfg.RDNID
	}
	srv, err := dispatch.New(cfg)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.srv = srv
		if err := tr.start(); err != nil {
			return err
		}
		defer tr.shutdown()
		fmt.Printf("gaged: tier member %d/%d, lease service %s\n",
			tcfg.RDNID, tcfg.RDNCount, tcfg.LeaseAddr)
	}
	if *pprofAddr != "" {
		// The pprof mux is the package-registered DefaultServeMux; it runs
		// beside (never on) the dispatcher's listener.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "gaged: pprof:", err)
			}
		}()
		fmt.Printf("gaged: pprof on %s\n", *pprofAddr)
	}
	if fc.AdminListen != "" {
		adminLn, err := net.Listen("tcp", fc.AdminListen)
		if err != nil {
			return fmt.Errorf("adminListen: %w", err)
		}
		go func() {
			if err := srv.ServeAdmin(adminLn); err != nil {
				fmt.Fprintln(os.Stderr, "gaged: admin:", err)
			}
		}()
		fmt.Printf("gaged: admin control plane on %s\n", adminLn.Addr())
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("gaged: %d subscribers, %d backends, serving on %s\n",
		len(cfg.Subscribers), len(cfg.Backends), ln.Addr())
	return srv.Serve(ln)
}

// parseFile reads the on-disk JSON, once, and validates its tier section.
func parseFile(raw []byte) (fileConfig, error) {
	var fc fileConfig
	if err := json.Unmarshal(raw, &fc); err != nil {
		return fileConfig{}, err
	}
	if err := fc.tierFileConfig.validate(); err != nil {
		return fileConfig{}, err
	}
	return fc, nil
}

// dispatchConfig converts the file into a dispatcher configuration. Knobs
// left at 0 stay zero so the library defaults apply; negative knobs are
// configuration errors (except slowStartCycles = -1, the documented ramp-off
// switch) — a typo like "queueTimeoutMillis": -30000 must fail loudly at
// startup, not silently become an infinite or default timeout.
func (fc fileConfig) dispatchConfig() (dispatch.Config, error) {
	cfg := dispatch.Config{}
	for _, s := range fc.Subscribers {
		if s.ReservationGRPS < 0 {
			return dispatch.Config{}, fmt.Errorf("subscriber %q: reservationGRPS must not be negative (got %v)", s.ID, s.ReservationGRPS)
		}
		if s.QueueLimit < 0 {
			return dispatch.Config{}, fmt.Errorf("subscriber %q: queueLimit must not be negative (got %d)", s.ID, s.QueueLimit)
		}
		cfg.Subscribers = append(cfg.Subscribers, qos.Subscriber{
			ID:          qos.SubscriberID(s.ID),
			Hosts:       s.Hosts,
			Reservation: qos.GRPS(s.ReservationGRPS),
			QueueLimit:  s.QueueLimit,
			Group:       s.Group,
		})
	}
	for _, b := range fc.Backends {
		cfg.Backends = append(cfg.Backends, dispatch.Backend{
			ID:   core.NodeID(b.ID),
			Addr: b.Addr,
		})
	}
	// millis applies one optional millisecond knob: 0 leaves the library
	// default, positive sets, negative is an error naming the knob.
	var err error
	millis := func(name string, v int, dst *time.Duration) {
		if err != nil {
			return
		}
		if v < 0 {
			err = fmt.Errorf("%s must not be negative (got %d)", name, v)
			return
		}
		if v > 0 {
			*dst = time.Duration(v) * time.Millisecond
		}
	}
	count := func(name string, v int, dst *int) {
		if err != nil {
			return
		}
		if v < 0 {
			err = fmt.Errorf("%s must not be negative (got %d)", name, v)
			return
		}
		if v > 0 {
			*dst = v
		}
	}
	millis("acctCycleMillis", fc.AcctCycleMillis, &cfg.AcctCycle)
	millis("schedCycleMillis", fc.SchedCycleMillis, &cfg.Scheduler.Cycle)
	millis("dialTimeoutMillis", fc.DialTimeoutMillis, &cfg.DialTimeout)
	millis("queueTimeoutMillis", fc.QueueTimeoutMillis, &cfg.QueueTimeout)
	millis("retryBackoffMillis", fc.RetryBackoffMillis, &cfg.RetryBackoff)
	millis("drainTimeoutMillis", fc.DrainTimeoutMillis, &cfg.DrainTimeout)
	millis("clientIdleTimeoutMillis", fc.ClientIdleTimeoutMillis, &cfg.ClientIdleTimeout)
	millis("backendTimeoutMillis", fc.BackendTimeoutMillis, &cfg.BackendTimeout)
	millis("breakerCooldownMillis", fc.BreakerCooldownMillis, &cfg.Breaker.Cooldown)
	millis("conformanceWindowMillis", fc.ConformanceWindowMillis, &cfg.ConformanceWindow)
	count("maxConns", fc.MaxConns, &cfg.MaxConns)
	count("breakerThreshold", fc.BreakerThreshold, &cfg.Breaker.Threshold)
	count("traceSampleEvery", fc.TraceSampleEvery, &cfg.TraceSampleEvery)
	count("traceBuffer", fc.TraceBuffer, &cfg.TraceBuffer)
	count("cycleRingSize", fc.CycleRingSize, &cfg.CycleRingSize)
	count("eventRingSize", fc.EventRingSize, &cfg.EventRingSize)
	count("exemplarsPerSpan", fc.ExemplarsPerSpan, &cfg.ExemplarsPerSpan)
	if err != nil {
		return dispatch.Config{}, err
	}
	if fc.CycleLog != "" {
		// Created (truncated) at startup so a bad path fails loudly before
		// the listener opens; the dispatcher owns the writer afterwards.
		f, ferr := os.Create(fc.CycleLog)
		if ferr != nil {
			return dispatch.Config{}, fmt.Errorf("cycleLog: %w", ferr)
		}
		cfg.CycleLog = f
	}
	if fc.EventLog != "" {
		f, ferr := os.Create(fc.EventLog)
		if ferr != nil {
			return dispatch.Config{}, fmt.Errorf("eventLog: %w", ferr)
		}
		cfg.EventLog = f
	}
	if fc.SlowStartCycles < -1 {
		return dispatch.Config{}, fmt.Errorf("slowStartCycles must be >= -1 (got %d; -1 disables the ramp)", fc.SlowStartCycles)
	}
	if fc.SlowStartCycles != 0 {
		cfg.Breaker.SlowStart = fc.SlowStartCycles
	}
	if fc.AdmitHeadroom < 0 || fc.AdmitHeadroom > 1 {
		return dispatch.Config{}, fmt.Errorf("admitHeadroom must be in [0, 1] (got %v)", fc.AdmitHeadroom)
	}
	cfg.AdmitHeadroom = fc.AdmitHeadroom
	return cfg, nil
}
