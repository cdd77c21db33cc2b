package dispatch

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"gage/internal/flightrec"
	"gage/internal/qos"
	"gage/internal/telemetry"
)

// lockedBuffer is an io.Writer safe to read after the server closes while
// the recorder may still be committing.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestCyclesEndpointOff: with recording left off, the cycles endpoint 404s,
// the conformance families stay out of the exposition, and the accessors
// return nil.
func TestCyclesEndpointOff(t *testing.T) {
	addr, srv := startTB(t, Config{
		Subscribers: defaultSubs(),
		Backends:    []Backend{{ID: 1, Addr: liveBackend(t, 1)}},
	})
	if srv.Recorder() != nil || srv.Auditor() != nil {
		t.Fatal("recorder/auditor non-nil with recording off")
	}
	if resp := scrape(t, addr, CyclesPath); resp.StatusCode != 404 {
		t.Fatalf("cycles endpoint = %d with recording off, want 404", resp.StatusCode)
	}
	body := scrape(t, addr, MetricsPath).Body
	if bytes.Contains(body, []byte("gage_conformance_ratio")) {
		t.Error("conformance families present with recording off")
	}
}

// TestCyclesEndpointAndConformanceMetrics drives traffic through a recording
// dispatcher and checks all three tentpole surfaces: the cycle-record dump,
// the conformance families in the exposition, and the JSONL cycle log.
func TestCyclesEndpointAndConformanceMetrics(t *testing.T) {
	spill := &lockedBuffer{}
	addr, srv := startTB(t, Config{
		Subscribers:       defaultSubs(),
		Backends:          []Backend{{ID: 1, Addr: liveBackend(t, 1)}, {ID: 2, Addr: liveBackend(t, 2)}},
		MaxConns:          64,
		CycleRingSize:     512,
		CycleLog:          spill,
		ConformanceWindow: 5 * time.Second,
	})
	metricsWorkload(t, addr, srv)
	// Wait for the accounting poll to deliver the served requests'
	// completions into the cycle records (one poll cycle behind serving).
	recorded := func() int {
		total := 0
		for _, cr := range srv.Recorder().Recent(0) {
			for _, sub := range cr.Subs {
				total += sub.Completed
			}
		}
		return total
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Recorder().Seq() < 10 || recorded() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("after %d cycles only %d completions recorded", srv.Recorder().Seq(), recorded())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp := scrape(t, addr, CyclesPath)
	if resp.StatusCode != 200 {
		t.Fatalf("cycles endpoint = %d, want 200", resp.StatusCode)
	}
	var dump struct {
		RingSize   int                     `json:"ringSize"`
		Seq        uint64                  `json:"seq"`
		SpillError string                  `json:"spillError"`
		Records    []flightrec.CycleRecord `json:"records"`
	}
	if err := json.Unmarshal(resp.Body, &dump); err != nil {
		t.Fatalf("cycles json: %v", err)
	}
	if dump.RingSize != 512 {
		t.Errorf("ringSize = %d, want 512", dump.RingSize)
	}
	if dump.SpillError != "" {
		t.Errorf("spill error: %s", dump.SpillError)
	}
	if uint64(len(dump.Records)) != dump.Seq && len(dump.Records) != dump.RingSize {
		t.Errorf("%d records with seq %d and ring 512", len(dump.Records), dump.Seq)
	}
	if len(dump.Records) == 0 {
		t.Fatal("no records in the dump")
	}
	// A record has rows only for the subscribers its cycle touched, so the one
	// the scrape happens to land after — an idle cycle between the workload
	// and the poll, a catch-up cycle — is legitimately empty: the rows are
	// asserted over the whole dump, not on the last record.
	var served int
	rows := map[qos.SubscriberID]bool{}
	for _, cr := range dump.Records {
		for _, sub := range cr.Subs {
			served += sub.Completed
			rows[sub.ID] = true
		}
	}
	if served < 4 {
		t.Errorf("records account %d completions, want >= the 4 served requests", served)
	}
	if len(rows) != 2 || !rows["site1"] || !rows["site2"] {
		t.Errorf("records carry rows for %v, want site1 and site2", rows)
	}

	series, err := telemetry.Parse(scrape(t, addr, MetricsPath).Body)
	if err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}
	if got := series["gage_cycle_records_total"].Value; got < 10 {
		t.Errorf("gage_cycle_records_total = %v, want >= 10", got)
	}
	for _, key := range []string{
		`gage_conformance_ratio{subscriber="site1",window="fast"}`,
		`gage_conformance_ratio{subscriber="site1",window="slow"}`,
		`gage_conformance_ratio{subscriber="site2",window="fast"}`,
		`gage_spare_share{subscriber="site1"}`,
		`gage_backlogged_fraction{subscriber="site1"}`,
	} {
		if _, ok := series[key]; !ok {
			t.Errorf("series %s missing from the exposition", key)
		}
	}
	for _, id := range []string{"site1", "site2"} {
		key := `gage_violation_total{subscriber="` + id + `"}`
		s, ok := series[key]
		if !ok {
			t.Errorf("series %s missing", key)
			continue
		}
		if s.Value != 0 {
			t.Errorf("%s = %v, want 0 (no guarantee violated by a light workload)", key, s.Value)
		}
	}

	// The spilled JSONL log replays offline into the same record stream.
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	recs, err := flightrec.ReadLog(bytes.NewReader(spill.bytes()))
	if err != nil {
		t.Fatalf("ReadLog(spill): %v", err)
	}
	if uint64(len(recs)) != srv.Recorder().Seq() {
		t.Errorf("spill holds %d records, recorder committed %d", len(recs), srv.Recorder().Seq())
	}
	rep := flightrec.Replay(recs, flightrec.AuditorConfig{})
	if _, ok := rep.Sub("site1"); !ok {
		t.Error("offline replay of the live cycle log lost site1")
	}
}
