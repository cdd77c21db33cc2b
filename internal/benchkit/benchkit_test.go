package benchkit

import (
	"flag"
	"testing"
)

func TestScenarioEstablish(t *testing.T) {
	sc, err := NewScenario()
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	pr, err := sc.Establish(1)
	if err != nil {
		t.Fatalf("Establish: %v", err)
	}
	if pr.Subscriber != "site1" {
		t.Errorf("subscriber = %q, want site1", pr.Subscriber)
	}
	if pr.Host != "www.site1.example" || pr.Path != "/index.html" {
		t.Errorf("host/path = %q %q", pr.Host, pr.Path)
	}
}

func TestClassifyOnce(t *testing.T) {
	sc, err := NewScenario()
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	id, err := sc.ClassifyOnce()
	if err != nil {
		t.Fatalf("ClassifyOnce: %v", err)
	}
	if id != "site1" {
		t.Errorf("classified = %q, want site1", id)
	}
}

func TestPrepareForwarding(t *testing.T) {
	sc, err := NewScenario()
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	pkt, err := sc.PrepareForwarding()
	if err != nil {
		t.Fatalf("PrepareForwarding: %v", err)
	}
	before := sc.RDN.Stats().Forwarded
	sc.RDN.Receive(pkt)
	if got := sc.RDN.Stats().Forwarded; got != before+1 {
		t.Errorf("forwarded = %d, want %d (table hit)", got, before+1)
	}
}

func TestMeasureTable3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("table 3 measurement is slow in -short mode")
	}
	// The assertions below are order-of-magnitude shapes, so a tenth of the
	// default second per operation is plenty (the untimed set-up and drain
	// work scales with it too).
	benchtime := flag.Lookup("test.benchtime").Value
	defer flag.Set("test.benchtime", benchtime.String())
	if err := flag.Set("test.benchtime", "100ms"); err != nil {
		t.Fatal(err)
	}
	rows, err := MeasureTable3()
	if err != nil {
		t.Fatalf("MeasureTable3: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byName := make(map[string]OpCost, len(rows))
	for _, r := range rows {
		if r.Measured <= 0 {
			t.Errorf("%s measured %v, want > 0", r.Name, r.Measured)
		}
		byName[r.Name] = r
	}
	// The load-bearing shape claims: connection setup costs dominate the
	// per-packet operations, and outgoing remapping costs at least as much
	// as incoming (it touches more header fields).
	setup := byName["connection setup (RPN)"].Measured
	remapIn := byName["remapping incoming"].Measured
	remapOut := byName["remapping outgoing"].Measured
	if setup < 10*remapIn {
		t.Errorf("RPN setup (%v) must dwarf per-packet remapping (%v)", setup, remapIn)
	}
	if remapOut < remapIn/2 {
		t.Errorf("remap out (%v) unexpectedly far below remap in (%v)", remapOut, remapIn)
	}
}
