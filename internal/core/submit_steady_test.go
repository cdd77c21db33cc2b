package core_test

import (
	"testing"
	"time"

	"gage/internal/core"
	"gage/internal/flightrec"
	"gage/internal/qos"
)

// arrivalCycle is a steady state in which every request is dispatched on
// arrival: one subscriber offered exactly its reservation, one request a
// cycle, completed at its predicted cost before the next arrives.
type arrivalCycle struct {
	s         *core.Scheduler
	rep       core.UsageReport
	nextID    uint64
	onArrival int
}

func newArrivalCycle(t *testing.T, rec *flightrec.Recorder) *arrivalCycle {
	t.Helper()
	dir, err := qos.NewDirectory([]qos.Subscriber{{ID: "a", Reservation: 100}})
	if err != nil {
		t.Fatal(err)
	}
	capacity := qos.GenericCost().Scale(100)
	s, err := core.New(dir, []core.NodeConfig{{ID: 1, Capacity: capacity}, {ID: 2, Capacity: capacity}}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		s.SetRecorder(rec)
	}
	return &arrivalCycle{s: s, rep: core.UsageReport{BySubscriber: make(map[qos.SubscriberID]core.SubscriberUsage, 1)}}
}

func (c *arrivalCycle) run() {
	c.s.Tick()
	c.nextID++
	d, now, _ := c.s.Submit(core.Request{ID: c.nextID, Subscriber: "a"})
	if !now {
		return
	}
	c.onArrival++
	c.rep.Node = d.Node
	c.rep.BySubscriber["a"] = core.SubscriberUsage{Usage: d.Predicted, Completed: 1}
	_ = c.s.ReportUsage(c.rep)
}

// TestSubmitAllocFree: in steady state a Submit that dispatches, the
// accounting message that settles it and the tick between them allocate
// nothing, recorder off or on.
func TestSubmitAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, record := range []bool{false, true} {
		var rec *flightrec.Recorder
		if record {
			rec = flightrec.NewRecorder(flightrec.Config{RingSize: 64})
		}
		c := newArrivalCycle(t, rec)
		for i := 0; i < 512; i++ { // grow the FIFO, the pending rings, the record ring
			c.run()
		}
		before := c.onArrival
		if allocs := testing.AllocsPerRun(200, c.run); allocs != 0 {
			t.Errorf("recorder %v: a Submit cycle allocated %.1f objects, want 0", record, allocs)
		}
		if got := c.onArrival - before; got < 200 {
			t.Errorf("recorder %v: %d of the measured Submits dispatched on arrival, want all of them", record, got)
		}
	}
}

// TestRecorderAddsUpBetweenTicks: with a recorder attached, a run whose
// dispatches are all made between ticks still writes records that add up —
// per subscriber, the credit recorded less the usage recorded is the balance,
// the dispatches recorded are the dispatches made, all reservation-funded —
// and the conformance audit of those records finds the reservation delivered.
func TestRecorderAddsUpBetweenTicks(t *testing.T) {
	rec := flightrec.NewRecorder(flightrec.Config{RingSize: 4096})
	var at time.Duration
	rec.SetClock(func() time.Duration { return at })
	c := newArrivalCycle(t, rec)
	const cycles = 1000
	for i := 0; i < cycles; i++ {
		at += core.DefaultCycle
		c.run()
	}
	// Read before the tick that commits the last cycle's arrival: the read
	// after it would settle that tick's credit, which no record holds yet.
	balance, _ := c.s.Balance("a")
	at += core.DefaultCycle
	c.s.Tick()
	if c.onArrival != cycles {
		t.Fatalf("%d of %d requests dispatched on arrival, want all", c.onArrival, cycles)
	}
	var credited, used qos.Vector
	var reserved, spare, completed int
	for _, cr := range rec.Recent(0) {
		for _, sr := range cr.Subs {
			credited, used = credited.Add(sr.Credited), used.Add(sr.Usage)
			reserved, spare, completed = reserved+sr.Reserved, spare+sr.Spare, completed+sr.Completed
		}
	}
	if reserved != cycles || spare != 0 || completed != cycles {
		t.Errorf("records count %d reserved, %d spare, %d completed; want %d, 0, %d", reserved, spare, completed, cycles, cycles)
	}
	if got := credited.Sub(used); got != balance {
		t.Errorf("credit recorded − usage recorded = %v, balance = %v: the records do not add up", got, balance)
	}
	rep := flightrec.Replay(rec.Recent(0), flightrec.AuditorConfig{Window: 5 * time.Second, Skip: time.Second})
	sr, ok := rep.Sub("a")
	if !ok {
		t.Fatal("audit has no row for the subscriber")
	}
	if sr.Violations != 0 || sr.SlowRatio < 0.99 || sr.SlowRatio > 1.01 || sr.Spare != 0 {
		t.Errorf("audit = %+v, want the reservation delivered, no violation, no spare", sr)
	}
}
