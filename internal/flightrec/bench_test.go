package flightrec_test

import (
	"fmt"
	"testing"
	"time"

	"gage/internal/core"
	"gage/internal/flightrec"
	"gage/internal/obs"
	"gage/internal/qos"
)

// benchScheduler builds the benchmark fixture: 8 subscribers on 4 nodes, the
// shape of a small hosting cluster. Queues stay empty so Tick isolates the
// per-cycle fixed cost — credit accounting plus, when attached, the recorder.
func benchScheduler(tb testing.TB, rec *flightrec.Recorder) *core.Scheduler {
	tb.Helper()
	var subs []qos.Subscriber
	for i := 0; i < 8; i++ {
		subs = append(subs, qos.Subscriber{
			ID:          qos.SubscriberID(fmt.Sprintf("site%d", i)),
			Hosts:       []string{fmt.Sprintf("site%d.example", i)},
			Reservation: qos.GRPS(50 * (i + 1)),
		})
	}
	dir, err := qos.NewDirectory(subs)
	if err != nil {
		tb.Fatal(err)
	}
	var nodes []core.NodeConfig
	for i := 0; i < 4; i++ {
		nodes = append(nodes, core.NodeConfig{
			ID:       core.NodeID(i + 1),
			Capacity: qos.GenericCost().Scale(1000),
		})
	}
	sched, err := core.New(dir, nodes, core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	if rec != nil {
		sched.SetRecorder(rec)
	}
	return sched
}

func BenchmarkFlightrecTickRecorderOff(b *testing.B) {
	sched := benchScheduler(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Tick()
	}
}

func BenchmarkFlightrecTickRecorderOn(b *testing.B) {
	rec := flightrec.NewRecorder(flightrec.Config{RingSize: 128})
	sched := benchScheduler(b, rec)
	for i := 0; i < rec.RingSize(); i++ {
		sched.Tick() // lap the ring once so every slot holds its capacity
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Tick()
	}
}

// BenchmarkFlightrecRecord measures the recorder alone: one Begin/fill/Commit
// of a cluster-shaped record (8 subscribers, 4 nodes), no spill.
func BenchmarkFlightrecRecord(b *testing.B) {
	rec := flightrec.NewRecorder(flightrec.Config{RingSize: 128, Now: func() time.Duration { return 0 }})
	fill := func() {
		slot := rec.Begin()
		for i := 0; i < 8; i++ {
			slot.Subs = append(slot.Subs, flightrec.SubRecord{
				ID: "site", Reservation: 100, QueueLen: i, Reserved: 1,
			})
		}
		for i := 0; i < 4; i++ {
			slot.Nodes = append(slot.Nodes, flightrec.NodeRecord{ID: i, Weight: 1})
		}
		rec.Commit()
	}
	for i := 0; i < rec.RingSize(); i++ {
		fill() // lap the ring once so every slot holds its capacity
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
	}
}

// TestRecordSteadyStateAllocs pins the tentpole's allocation contract: with a
// recorder attached (ring only, no spill), a steady-state Tick — credit
// accounting plus one committed CycleRecord — allocates nothing.
func TestRecordSteadyStateAllocs(t *testing.T) {
	rec := flightrec.NewRecorder(flightrec.Config{RingSize: 64})
	sched := benchScheduler(t, rec)
	// Warm up: lap the ring once so every slot's Subs/Nodes have capacity.
	for i := 0; i < 80; i++ {
		sched.Tick()
	}
	if avg := testing.AllocsPerRun(500, func() { sched.Tick() }); avg != 0 {
		t.Fatalf("recorder-on Tick allocates %.1f times per op in steady state, want 0", avg)
	}
}

// TestRecorderOffSingleNilCheck locks the off-by-default contract from the
// other side: a scheduler with no recorder attached also ticks allocation-free
// (nothing hidden behind the nil check).
func TestRecorderOffNoAllocs(t *testing.T) {
	sched := benchScheduler(t, nil)
	for i := 0; i < 10; i++ {
		sched.Tick()
	}
	if avg := testing.AllocsPerRun(500, func() { sched.Tick() }); avg != 0 {
		t.Fatalf("recorder-off Tick allocates %.1f times per op, want 0", avg)
	}
}

// BenchmarkObsTickRecorderAndBus measures the full observability tax on the
// scheduler hot path: flight recorder on, with the unified event bus
// mirroring every committed cycle. Gated by make bench-obs; must stay
// 0 allocs/op, and its per-op cost within ~10% of
// BenchmarkFlightrecTickRecorderOn (the bus's marginal publish cost).
func BenchmarkObsTickRecorderAndBus(b *testing.B) {
	rec := flightrec.NewRecorder(flightrec.Config{RingSize: 128})
	bus := obs.NewBus(obs.BusConfig{RingSize: 4096, Now: func() time.Duration { return 0 }})
	rec.SetBus(bus)
	sched := benchScheduler(b, rec)
	for i := 0; i < rec.RingSize(); i++ {
		sched.Tick() // lap the ring once so every slot holds its capacity
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Tick()
	}
}
