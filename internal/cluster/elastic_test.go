package cluster

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"gage/internal/admitctl"
	"gage/internal/core"
	"gage/internal/flightrec"
	"gage/internal/metrics"
	"gage/internal/qos"
)

// The drill geometry lives in ElasticityDrillOptions (elastic.go) so the
// test and `gagebench elastic` run the identical scenario.
const (
	drillWarmup = ElasticityDrillWarmup
	drillDur    = ElasticityDrillDuration
)

func drillOptions(rec *flightrec.Recorder) Options { return ElasticityDrillOptions(rec) }

// TestElasticityDrill is the acceptance drill for the scripted admission
// plane: every accepted operation lands while load is flowing, the refused
// one leaves the committed total untouched, the added node ramps in
// monotonically, the drained node goes quiet, and — the headline guarantee —
// the untouched subscribers' conformance audit shows zero violation spans
// through all the churn.
func TestElasticityDrill(t *testing.T) {
	var spill bytes.Buffer
	rec := flightrec.NewRecorder(flightrec.Config{RingSize: 64, Spill: &spill})
	res, err := Run(drillOptions(rec))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertSettled(t, res)
	if got := res.DispatchedReqs + res.QueuedAtEnd + res.OrphanedReqs; got != res.AdmittedReqs {
		t.Errorf("admission books broken: admitted=%d but dispatched+queued+orphaned=%d (%d+%d+%d)",
			res.AdmittedReqs, got, res.DispatchedReqs, res.QueuedAtEnd, res.OrphanedReqs)
	}

	// The outcome log holds every scripted event in schedule order.
	if len(res.AdmissionLog) != 6 {
		t.Fatalf("admission log holds %d outcomes, want 6: %+v", len(res.AdmissionLog), res.AdmissionLog)
	}
	wantApplied := []bool{true, true, true, true, false, true}
	for i, out := range res.AdmissionLog {
		if out.Err != "" {
			t.Errorf("event %d (%v): mechanical error %q", i, out.Kind, out.Err)
		}
		if out.Applied != wantApplied[i] {
			t.Errorf("event %d (%v): applied=%v, want %v", i, out.Kind, out.Applied, wantApplied[i])
		}
	}
	if res.AdmissionAccepted != 5 || res.AdmissionRejected != 1 {
		t.Errorf("accepted/rejected = %d/%d, want 5/1", res.AdmissionAccepted, res.AdmissionRejected)
	}

	// The infeasible admission is refused with a structured reason and the
	// committed reservation total is exactly what the previous event left.
	reject := res.AdmissionLog[4]
	if reject.Decision.Code != admitctl.CodeInfeasible {
		t.Errorf("site4 decision code = %q, want %q", reject.Decision.Code, admitctl.CodeInfeasible)
	}
	if reject.Decision.Reason == "" {
		t.Error("site4 refusal carries no reason")
	}
	if reject.Decision.Binding == "" {
		t.Error("site4 refusal names no binding resource")
	}
	if before := res.AdmissionLog[3].CommittedAfter; reject.CommittedAfter != before {
		t.Errorf("refused admission moved the committed total: %v → %v", before, reject.CommittedAfter)
	}
	if reject.CommittedAfter != 160 {
		t.Errorf("committed total after refusal = %v, want 160", reject.CommittedAfter)
	}
	if _, ok := res.Row("site4"); ok {
		t.Error("refused subscriber site4 has a result row")
	}

	// site3 lived from admit to removal: it served real traffic and its row
	// is frozen at its final (resized) reservation.
	site3, ok := res.Row("site3")
	if !ok {
		t.Fatal("no row for site3")
	}
	if site3.Reservation != 60 {
		t.Errorf("site3 row reservation = %v, want the resized 60", site3.Reservation)
	}
	if site3.ServedReqs == 0 {
		t.Error("site3 served nothing between admission and removal")
	}

	// The added node enters below full weight and ramps monotonically to 1.
	addOff := 9*time.Second - drillWarmup
	var ramp []float64
	for _, s := range res.NodeWeights[3].Samples() {
		if s.T >= addOff {
			ramp = append(ramp, s.Units)
		}
	}
	if len(ramp) == 0 {
		t.Fatal("no weight samples for the added node")
	}
	if ramp[0] >= 1 {
		t.Errorf("added node's first weight sample = %v; scale-out must start below full", ramp[0])
	}
	if !metrics.MonotoneNonDecreasing(ramp, 0) {
		t.Errorf("added node's weight ramp is not monotone: %v", ramp[:min(len(ramp), 12)])
	}
	if last := ramp[len(ramp)-1]; last != 1 {
		t.Errorf("added node's final weight = %v, want 1", last)
	}
	if dispatches := res.NodeDispatches[3].Samples(); len(dispatches) == 0 {
		t.Error("added node received no dispatches")
	}

	// The drained node takes nothing new after the drain settles.
	drainOff := 11*time.Second - drillWarmup
	for _, s := range res.NodeWeights[2].Samples() {
		if s.T > drainOff && s.Units != 0 {
			t.Errorf("drained node's weight = %v at %v, want 0 from %v on", s.Units, s.T, drainOff)
			break
		}
	}
	for _, s := range res.NodeDispatches[2].Samples() {
		if s.T > drainOff+2*core.DefaultCycle {
			t.Errorf("drained node dispatched at %v, after the drain at %v", s.T, drainOff)
			break
		}
	}

	// The headline acceptance check: replay the cycle log offline and
	// require zero violation spans for the untouched subscribers through
	// the admit/resize/add/drain churn.
	if err := rec.SpillErr(); err != nil {
		t.Fatalf("spill: %v", err)
	}
	recs, err := flightrec.ReadLog(&spill)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	rep := flightrec.Replay(recs, flightrec.AuditorConfig{Skip: drillWarmup})
	for _, id := range []qos.SubscriberID{"site1", "site2"} {
		sub, ok := rep.Sub(id)
		if !ok {
			t.Fatalf("audit report has no entry for %s", id)
		}
		if sub.Violations != 0 || len(sub.Spans) != 0 {
			t.Errorf("%s: %d violation spans (%v); an untouched subscriber must audit clean",
				id, sub.Violations, sub.Spans)
		}
	}
	// Every applied operation left its mark in the audit stream, in order.
	var kinds []string
	for _, ev := range rep.Events {
		kinds = append(kinds, ev.Event.Kind)
	}
	wantKinds := []string{"sub-admit", "sub-resize", "node-add", "node-drain", "sub-remove"}
	if !reflect.DeepEqual(kinds, wantKinds) {
		t.Errorf("audit event kinds = %v, want %v", kinds, wantKinds)
	}
}

// TestElasticityDrillReplayable runs the drill twice and requires identical
// outcomes — scripted elasticity must be as deterministic as scripted faults.
func TestElasticityDrillReplayable(t *testing.T) {
	run := func() *Result {
		res, err := Run(drillOptions(nil))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.AdmissionLog, b.AdmissionLog) {
		t.Errorf("admission logs differ:\n%+v\n%+v", a.AdmissionLog, b.AdmissionLog)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Errorf("rows differ:\n%+v\n%+v", a.Rows, b.Rows)
	}
	type counters struct{ dispatched, delivered, admitted, shed, queued, orphaned int }
	ca := counters{a.DispatchedReqs, a.DeliveredReqs, a.AdmittedReqs, a.ShedReqs, a.QueuedAtEnd, a.OrphanedReqs}
	cb := counters{b.DispatchedReqs, b.DeliveredReqs, b.AdmittedReqs, b.ShedReqs, b.QueuedAtEnd, b.OrphanedReqs}
	if ca != cb {
		t.Errorf("counters differ: %+v vs %+v", ca, cb)
	}
}

// TestResultKeySets pins what result() assembles from the records: every
// per-subscriber map holds exactly the subscribers ever defined — the removed
// site3 included, the refused site4 not — every per-node map exactly the
// nodes that ever joined, and the rows come in subscriber-ID order.
func TestResultKeySets(t *testing.T) {
	res, err := Run(drillOptions(nil))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantSubs := []qos.SubscriberID{"site1", "site2", "site3"}
	wantNodes := []core.NodeID{1, 2, 3}
	if got := sortedKeys(res.Series); !reflect.DeepEqual(got, wantSubs) {
		t.Errorf("Series keys = %v, want %v", got, wantSubs)
	}
	if got := sortedKeys(res.Observed); !reflect.DeepEqual(got, wantSubs) {
		t.Errorf("Observed keys = %v, want %v", got, wantSubs)
	}
	if got := sortedKeys(res.LatencyHist); !reflect.DeepEqual(got, wantSubs) {
		t.Errorf("LatencyHist keys = %v, want %v", got, wantSubs)
	}
	if got := sortedKeys(res.NodeWeights); !reflect.DeepEqual(got, wantNodes) {
		t.Errorf("NodeWeights keys = %v, want %v", got, wantNodes)
	}
	if got := sortedKeys(res.NodeDispatches); !reflect.DeepEqual(got, wantNodes) {
		t.Errorf("NodeDispatches keys = %v, want %v", got, wantNodes)
	}
	var rows []qos.SubscriberID
	for _, row := range res.Rows {
		rows = append(rows, row.ID)
	}
	if !reflect.DeepEqual(rows, wantSubs) {
		t.Errorf("row order = %v, want %v", rows, wantSubs)
	}
	if site3, _ := res.Row("site3"); site3.Reservation != 60 {
		t.Errorf("removed site3's row reservation = %v, want it frozen at 60", site3.Reservation)
	}
}
