package dispatch

import (
	"testing"

	"gage/internal/qos"
)

func admSubs() []qos.Subscriber {
	return []qos.Subscriber{
		{ID: "gold", Reservation: 30},
		{ID: "silver", Reservation: 10},
		{ID: "free", Reservation: 0},
	}
}

func TestAdmissionQuotasProportionalToReservations(t *testing.T) {
	a := newAdmission(8, admSubs(), admissionShards)
	cases := map[qos.SubscriberID]int{"gold": 6, "silver": 2, "free": 0}
	for id, want := range cases {
		if q, _, _ := a.subSnapshot(id); q != want {
			t.Errorf("quota[%s] = %d, want %d", id, q, want)
		}
	}
}

func TestAdmissionShedsSpareTrafficFirst(t *testing.T) {
	// max 8: gold holds 6 guaranteed slots, silver 2, free none. The free
	// subscriber may only use slots nobody is guaranteed — with every quota
	// idle there are none, so free is shed while both reserved subscribers
	// still fill their full quotas.
	a := newAdmission(8, admSubs(), admissionShards)
	if a.admit("free") {
		t.Fatal("free admitted while every slot is reserved for quota holders")
	}
	for i := 0; i < 6; i++ {
		if !a.admit("gold") {
			t.Fatalf("gold refused at in-flight %d, quota 6", i)
		}
	}
	for i := 0; i < 2; i++ {
		if !a.admit("silver") {
			t.Fatalf("silver refused at in-flight %d, quota 2", i)
		}
	}
	// Saturated: even reserved subscribers are spare past their quota.
	if a.admit("gold") {
		t.Error("gold admitted past quota at full saturation")
	}
	_, _, shed := a.subSnapshot("free")
	if shed != 1 {
		t.Errorf("free shed counter = %d, want 1", shed)
	}
}

func TestAdmissionReleaseRestoresGuaranteedSlot(t *testing.T) {
	a := newAdmission(4, []qos.Subscriber{
		{ID: "res", Reservation: 10},
		{ID: "free", Reservation: 0},
	}, admissionShards)
	// quota[res] = 4: the whole cap is guaranteed. Burn two slots, release
	// one — the freed slot must rejoin the guaranteed pool, so free traffic
	// still cannot squeeze in.
	if !a.admit("res") || !a.admit("res") {
		t.Fatal("reserved admissions under quota refused")
	}
	a.release("res")
	if a.admit("free") {
		t.Error("free admitted into a released guaranteed slot")
	}
	if !a.admit("res") {
		t.Error("reserved refused its released slot back")
	}
}

func TestAdmissionSpareUsesTrulySpareSlots(t *testing.T) {
	// max 5 but only 4 slots are guaranteed (2+2 after floor rounding): the
	// remainder slot is genuinely spare and free traffic may take it — but
	// only it.
	a := newAdmission(5, []qos.Subscriber{
		{ID: "x", Reservation: 1},
		{ID: "y", Reservation: 1},
		{ID: "free", Reservation: 0},
	}, admissionShards)
	if !a.admit("free") {
		t.Fatal("free refused the unreserved remainder slot")
	}
	if a.admit("free") {
		t.Error("free admitted into the guaranteed pool")
	}
	// The guarantee is intact: both quota holders still get their slot.
	if !a.admit("x") || !a.admit("y") {
		t.Error("quota holder refused its guaranteed slot while spare traffic is saturated")
	}
}

// TestAdmissionShardedAllocFree pins the accept-edge hot path: once a
// subscriber's shard entries exist, an admit/release round trip must not
// allocate — the shard pick is an FNV hash over the ID bytes, the counters
// move by CAS, and the per-shard maps are only read and written, never
// grown.
func TestAdmissionShardedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	a := newAdmission(64, admSubs(), 4)
	// Warm the shard entries: inflight keys materialize on first admit,
	// shed keys on first refusal (free holds no quota and the whole cap is
	// reserved, so its admit is always refused).
	for _, id := range []qos.SubscriberID{"gold", "silver", "free"} {
		if a.admit(id) {
			a.release(id)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if !a.admit("gold") {
			t.Fatal("gold refused under quota")
		}
		a.release("gold")
		if a.admit("free") { // exercises the spare refusal + shed counting
			t.Fatal("free admitted while every slot is reserved")
		}
	}); n != 0 {
		t.Errorf("admit/release round trip allocates %.1f times, want 0", n)
	}
}

func TestAdmissionDisabledWhenNoCap(t *testing.T) {
	a := newAdmission(0, admSubs(), admissionShards)
	for i := 0; i < 100; i++ {
		if !a.admit("free") {
			t.Fatal("admission refused with MaxConns=0; control must be off")
		}
	}
}
