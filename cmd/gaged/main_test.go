package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gage/internal/dispatch"
	"gage/internal/qos"
)

// parseConfig is the path run takes from the file's bytes to the dispatcher
// configuration.
func parseConfig(raw []byte) (dispatch.Config, error) {
	fc, err := parseFile(raw)
	if err != nil {
		return dispatch.Config{}, err
	}
	return fc.dispatchConfig()
}

func TestParseConfig(t *testing.T) {
	raw := []byte(`{
	  "subscribers": [
	    {"id": "gold", "hosts": ["gold.example", "www.gold.example"], "reservationGRPS": 400, "queueLimit": 64},
	    {"id": "bronze", "hosts": ["bronze.example"], "reservationGRPS": 100}
	  ],
	  "backends": [
	    {"id": 1, "addr": "127.0.0.1:9001"},
	    {"id": 2, "addr": "127.0.0.1:9002"}
	  ],
	  "acctCycleMillis": 250,
	  "schedCycleMillis": 20,
	  "dialTimeoutMillis": 1500,
	  "queueTimeoutMillis": 10000,
	  "retryBackoffMillis": 40,
	  "maxConns": 512,
	  "drainTimeoutMillis": 3000,
	  "clientIdleTimeoutMillis": 45000,
	  "backendTimeoutMillis": 20000,
	  "breakerThreshold": 5,
	  "breakerCooldownMillis": 1500,
	  "slowStartCycles": 8
	}`)
	cfg, err := parseConfig(raw)
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if len(cfg.Subscribers) != 2 {
		t.Fatalf("subscribers = %d, want 2", len(cfg.Subscribers))
	}
	gold := cfg.Subscribers[0]
	if gold.ID != "gold" || gold.Reservation != 400 || gold.QueueLimit != 64 {
		t.Errorf("gold = %+v", gold)
	}
	if len(gold.Hosts) != 2 || gold.Hosts[1] != "www.gold.example" {
		t.Errorf("gold hosts = %v", gold.Hosts)
	}
	if len(cfg.Backends) != 2 || cfg.Backends[1].Addr != "127.0.0.1:9002" {
		t.Errorf("backends = %+v", cfg.Backends)
	}
	if cfg.AcctCycle != 250*time.Millisecond {
		t.Errorf("acct cycle = %v, want 250ms", cfg.AcctCycle)
	}
	if cfg.Scheduler.Cycle != 20*time.Millisecond {
		t.Errorf("sched cycle = %v, want 20ms", cfg.Scheduler.Cycle)
	}
	if cfg.DialTimeout != 1500*time.Millisecond {
		t.Errorf("dial timeout = %v, want 1.5s", cfg.DialTimeout)
	}
	if cfg.QueueTimeout != 10*time.Second {
		t.Errorf("queue timeout = %v, want 10s", cfg.QueueTimeout)
	}
	if cfg.RetryBackoff != 40*time.Millisecond {
		t.Errorf("retry backoff = %v, want 40ms", cfg.RetryBackoff)
	}
	if cfg.MaxConns != 512 {
		t.Errorf("max conns = %d, want 512", cfg.MaxConns)
	}
	if cfg.DrainTimeout != 3*time.Second {
		t.Errorf("drain timeout = %v, want 3s", cfg.DrainTimeout)
	}
	if cfg.ClientIdleTimeout != 45*time.Second {
		t.Errorf("client idle timeout = %v, want 45s", cfg.ClientIdleTimeout)
	}
	if cfg.BackendTimeout != 20*time.Second {
		t.Errorf("backend timeout = %v, want 20s", cfg.BackendTimeout)
	}
	if cfg.Breaker.Threshold != 5 {
		t.Errorf("breaker threshold = %d, want 5", cfg.Breaker.Threshold)
	}
	if cfg.Breaker.Cooldown != 1500*time.Millisecond {
		t.Errorf("breaker cooldown = %v, want 1.5s", cfg.Breaker.Cooldown)
	}
	if cfg.Breaker.SlowStart != 8 {
		t.Errorf("slow-start cycles = %d, want 8", cfg.Breaker.SlowStart)
	}
}

func TestParseConfigSlowStartDisable(t *testing.T) {
	cfg, err := parseConfig([]byte(`{"subscribers":[{"id":"a"}],"backends":[{"id":1,"addr":"x"}],"slowStartCycles":-1}`))
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if cfg.Breaker.SlowStart != -1 {
		t.Errorf("slowStartCycles -1 must pass through (ramp disabled), got %d", cfg.Breaker.SlowStart)
	}
}

func TestParseConfigDefaultsAndErrors(t *testing.T) {
	cfg, err := parseConfig([]byte(`{"subscribers":[{"id":"a"}],"backends":[{"id":1,"addr":"x"}]}`))
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if cfg.AcctCycle != 0 || cfg.Scheduler.Cycle != 0 {
		t.Errorf("unset cycles must stay zero (library defaults apply): %v %v",
			cfg.AcctCycle, cfg.Scheduler.Cycle)
	}
	if cfg.DialTimeout != 0 || cfg.QueueTimeout != 0 || cfg.RetryBackoff != 0 {
		t.Errorf("unset timeouts must stay zero (library defaults apply): %v %v %v",
			cfg.DialTimeout, cfg.QueueTimeout, cfg.RetryBackoff)
	}
	if cfg.MaxConns != 0 || cfg.DrainTimeout != 0 || cfg.ClientIdleTimeout != 0 || cfg.BackendTimeout != 0 {
		t.Errorf("unset overload knobs must stay zero (library defaults apply): %d %v %v %v",
			cfg.MaxConns, cfg.DrainTimeout, cfg.ClientIdleTimeout, cfg.BackendTimeout)
	}
	if cfg.Breaker.Threshold != 0 || cfg.Breaker.Cooldown != 0 || cfg.Breaker.SlowStart != 0 {
		t.Errorf("unset breaker knobs must stay zero (library defaults apply): %+v", cfg.Breaker)
	}
	if _, err := parseConfig([]byte(`{not json`)); err == nil {
		t.Error("malformed JSON must be rejected")
	}
}

func TestParseConfigTelemetryKnobs(t *testing.T) {
	cfg, err := parseConfig([]byte(`{
	  "subscribers":[{"id":"a"}],
	  "backends":[{"id":1,"addr":"x"}],
	  "traceSampleEvery": 100,
	  "traceBuffer": 512
	}`))
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if cfg.TraceSampleEvery != 100 {
		t.Errorf("traceSampleEvery = %d, want 100", cfg.TraceSampleEvery)
	}
	if cfg.TraceBuffer != 512 {
		t.Errorf("traceBuffer = %d, want 512", cfg.TraceBuffer)
	}

	cfg, err = parseConfig([]byte(`{"subscribers":[{"id":"a"}],"backends":[{"id":1,"addr":"x"}]}`))
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if cfg.TraceSampleEvery != 0 || cfg.TraceBuffer != 0 {
		t.Errorf("unset telemetry knobs must stay zero (tracing off, default buffer): %d %d",
			cfg.TraceSampleEvery, cfg.TraceBuffer)
	}
}

func TestParseConfigFlightRecorderKnobs(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "cycles.jsonl")
	cfg, err := parseConfig([]byte(fmt.Sprintf(`{
	  "subscribers":[{"id":"a"}],
	  "backends":[{"id":1,"addr":"x"}],
	  "cycleRingSize": 2048,
	  "cycleLog": %q,
	  "conformanceWindowMillis": 15000
	}`, logPath)))
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if cfg.CycleRingSize != 2048 {
		t.Errorf("cycleRingSize = %d, want 2048", cfg.CycleRingSize)
	}
	if cfg.ConformanceWindow != 15*time.Second {
		t.Errorf("conformance window = %v, want 15s", cfg.ConformanceWindow)
	}
	if cfg.CycleLog == nil {
		t.Fatal("cycleLog path must open a spill writer")
	}
	if f, ok := cfg.CycleLog.(*os.File); ok {
		f.Close()
	}
	if _, err := os.Stat(logPath); err != nil {
		t.Errorf("cycle log not created at startup: %v", err)
	}

	cfg, err = parseConfig([]byte(`{"subscribers":[{"id":"a"}],"backends":[{"id":1,"addr":"x"}]}`))
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if cfg.CycleRingSize != 0 || cfg.CycleLog != nil || cfg.ConformanceWindow != 0 {
		t.Errorf("unset recorder knobs must stay zero (recording off): %d %v %v",
			cfg.CycleRingSize, cfg.CycleLog, cfg.ConformanceWindow)
	}

	// An unwritable spill path must fail at startup, naming the knob.
	_, err = parseConfig([]byte(`{"subscribers":[{"id":"a"}],"backends":[{"id":1,"addr":"x"}],"cycleLog":"/nonexistent-dir/cycles.jsonl"}`))
	if err == nil {
		t.Error("unwritable cycleLog path accepted, want error")
	} else if !strings.Contains(err.Error(), "cycleLog") {
		t.Errorf("cycleLog error %q does not name the field", err)
	}
}

// TestParseConfigRejectsNegativeKnobs: a negative timeout or count is never a
// sane default request — it's a typo — and the error must name the offending
// JSON field so the operator can find it.
func TestParseConfigRejectsNegativeKnobs(t *testing.T) {
	knobs := []string{
		"acctCycleMillis",
		"schedCycleMillis",
		"dialTimeoutMillis",
		"queueTimeoutMillis",
		"retryBackoffMillis",
		"drainTimeoutMillis",
		"clientIdleTimeoutMillis",
		"backendTimeoutMillis",
		"breakerCooldownMillis",
		"maxConns",
		"breakerThreshold",
		"traceSampleEvery",
		"traceBuffer",
		"cycleRingSize",
		"conformanceWindowMillis",
		"eventRingSize",
		"exemplarsPerSpan",
	}
	for _, knob := range knobs {
		raw := fmt.Sprintf(`{"subscribers":[{"id":"a"}],"backends":[{"id":1,"addr":"x"}],%q:-7}`, knob)
		_, err := parseConfig([]byte(raw))
		if err == nil {
			t.Errorf("%s: negative value accepted, want error", knob)
			continue
		}
		if !strings.Contains(err.Error(), knob) {
			t.Errorf("%s: error %q does not name the offending field", knob, err)
		}
	}

	// slowStartCycles is special: -1 is the documented ramp-off switch
	// (covered elsewhere), anything below it is a typo.
	if _, err := parseConfig([]byte(`{"subscribers":[{"id":"a"}],"backends":[{"id":1,"addr":"x"}],"slowStartCycles":-2}`)); err == nil {
		t.Error("slowStartCycles=-2 accepted, want error")
	} else if !strings.Contains(err.Error(), "slowStartCycles") {
		t.Errorf("slowStartCycles error %q does not name the field", err)
	}

	// Per-subscriber knobs carry the subscriber ID in the error.
	if _, err := parseConfig([]byte(`{"subscribers":[{"id":"a","reservationGRPS":-5}],"backends":[{"id":1,"addr":"x"}]}`)); err == nil {
		t.Error("negative reservationGRPS accepted, want error")
	} else if !strings.Contains(err.Error(), "reservationGRPS") || !strings.Contains(err.Error(), `"a"`) {
		t.Errorf("reservation error %q must name the field and subscriber", err)
	}
	if _, err := parseConfig([]byte(`{"subscribers":[{"id":"a","queueLimit":-1}],"backends":[{"id":1,"addr":"x"}]}`)); err == nil {
		t.Error("negative queueLimit accepted, want error")
	} else if !strings.Contains(err.Error(), "queueLimit") {
		t.Errorf("queueLimit error %q must name the field", err)
	}
}

func TestParseConfigAdminKnobs(t *testing.T) {
	cfg, err := parseConfig([]byte(`{
	  "subscribers":[{"id":"a"}],
	  "backends":[{"id":1,"addr":"x"}],
	  "admitHeadroom": 0.85
	}`))
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if cfg.AdmitHeadroom != 0.85 {
		t.Errorf("admitHeadroom = %v, want 0.85", cfg.AdmitHeadroom)
	}

	cfg, err = parseConfig([]byte(`{"subscribers":[{"id":"a"}],"backends":[{"id":1,"addr":"x"}]}`))
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if cfg.AdmitHeadroom != 0 {
		t.Errorf("unset admitHeadroom must stay zero (policy default applies): %v", cfg.AdmitHeadroom)
	}

	for _, bad := range []string{"-0.1", "1.5"} {
		raw := fmt.Sprintf(`{"subscribers":[{"id":"a"}],"backends":[{"id":1,"addr":"x"}],"admitHeadroom":%s}`, bad)
		if _, err := parseConfig([]byte(raw)); err == nil {
			t.Errorf("admitHeadroom=%s accepted, want error", bad)
		} else if !strings.Contains(err.Error(), "admitHeadroom") {
			t.Errorf("admitHeadroom error %q does not name the field", err)
		}
	}

	fc, err := parseFile([]byte(`{"adminListen":"127.0.0.1:8081"}`))
	if err != nil {
		t.Fatalf("parseFile: %v", err)
	}
	if addr := fc.AdminListen; addr != "127.0.0.1:8081" {
		t.Errorf("adminListen = %q, want 127.0.0.1:8081", addr)
	}
	if fc, _ := parseFile([]byte(`{}`)); fc.AdminListen != "" {
		t.Errorf("unset adminListen = %q, want empty (admin API off)", fc.AdminListen)
	}
}

func TestParseTier(t *testing.T) {
	cases := []struct {
		name    string
		json    string
		wantErr bool
	}{
		{"disabled", `{}`, false},
		{"singleIsDisabled", `{"rdnCount": 1}`, false},
		{"negativeCount", `{"rdnCount": -1}`, true},
		{"negativeLease", `{"rdnCount": 3, "rdnId": 1, "leaseAddr": "x", "leaseMillis": -5}`, true},
		{"tierKnobsWithoutTier", `{"rdnId": 2}`, true},
		{"idOutOfRange", `{"rdnCount": 3, "rdnId": 4, "leaseAddr": "x"}`, true},
		{"idMissing", `{"rdnCount": 3, "leaseAddr": "x"}`, true},
		{"addrMissing", `{"rdnCount": 3, "rdnId": 2}`, true},
		{"member", `{"rdnCount": 3, "rdnId": 2, "leaseAddr": "127.0.0.1:7070"}`, false},
		{"host", `{"rdnCount": 3, "rdnId": 1, "leaseListen": "127.0.0.1:7070"}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc, err := parseFile([]byte(tc.json))
			got := fc.tierFileConfig
			if (err != nil) != tc.wantErr {
				t.Fatalf("parseFile(%s) error = %v, wantErr %v", tc.json, err, tc.wantErr)
			}
			if err != nil {
				return
			}
			if tc.name == "host" && got.LeaseAddr != got.LeaseListen {
				t.Errorf("host: leaseAddr %q, want defaulted to leaseListen %q", got.LeaseAddr, got.LeaseListen)
			}
			if tc.name == "member" && got.leaseInterval() != time.Second {
				t.Errorf("leaseInterval = %v, want default 1s", got.leaseInterval())
			}
		})
	}
}

func TestSubscriberGroups(t *testing.T) {
	subs := []qos.Subscriber{
		{ID: "b1", Group: "tierB"},
		{ID: "a1", Group: "tierA"},
		{ID: "a2", Group: "tierA"},
	}
	got := subscriberGroups(subs)
	want := []string{"tierA", "tierB"}
	if len(got) != len(want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("groups = %v, want %v", got, want)
		}
	}
}

// TestParseConfigEventBusKnobs: the unified-event-bus knobs reach the
// dispatcher config, the spill file is created at startup, an unwritable
// path fails loudly, and unset knobs leave the bus off.
func TestParseConfigEventBusKnobs(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "events.jsonl")
	cfg, err := parseConfig([]byte(fmt.Sprintf(`{
	  "subscribers": [{"id": "a", "hosts": ["a.example"], "reservationGRPS": 10}],
	  "backends": [{"id": 1, "addr": "127.0.0.1:9001"}],
	  "eventRingSize": 4096,
	  "eventLog": %q,
	  "exemplarsPerSpan": 6
	}`, logPath)))
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if cfg.EventRingSize != 4096 {
		t.Errorf("eventRingSize = %d, want 4096", cfg.EventRingSize)
	}
	if cfg.ExemplarsPerSpan != 6 {
		t.Errorf("exemplarsPerSpan = %d, want 6", cfg.ExemplarsPerSpan)
	}
	if cfg.EventLog == nil {
		t.Fatal("eventLog path must open a spill writer")
	}
	if f, ok := cfg.EventLog.(*os.File); ok {
		f.Close()
	}
	if _, err := os.Stat(logPath); err != nil {
		t.Errorf("event log not created at startup: %v", err)
	}

	cfg, err = parseConfig([]byte(`{"subscribers":[{"id":"a"}],"backends":[{"id":1,"addr":"x"}]}`))
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if cfg.EventRingSize != 0 || cfg.EventLog != nil || cfg.ExemplarsPerSpan != 0 {
		t.Errorf("unset event-bus knobs must stay zero (bus off): %d %v %d",
			cfg.EventRingSize, cfg.EventLog, cfg.ExemplarsPerSpan)
	}

	_, err = parseConfig([]byte(`{"subscribers":[{"id":"a"}],"backends":[{"id":1,"addr":"x"}],"eventLog":"/nonexistent-dir/events.jsonl"}`))
	if err == nil {
		t.Error("unwritable eventLog path accepted, want error")
	} else if !strings.Contains(err.Error(), "eventLog") {
		t.Errorf("eventLog error %q does not name the field", err)
	}
}
