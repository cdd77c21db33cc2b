package dispatch

import (
	"sync"
	"sync/atomic"

	"gage/internal/qos"
)

// admission is the request-level admission controller: it decides, before a
// request is ever queued, whether accepting it would let spare-capacity
// traffic exhaust the handler slots that reserved traffic is entitled to.
//
// Each subscriber gets a quota of guaranteed in-flight slots proportional to
// its reservation: quota_i = floor(MaxConns × res_i / Σres). A request is
// "reserved" while its subscriber is below quota and always admitted — the
// controller maintains the invariant
//
//	total + reservedIdle ≤ max
//
// where reservedIdle is the number of unclaimed guaranteed slots, so a
// reserved request always finds room. A request beyond its subscriber's
// quota is spare-capacity traffic and is admitted only if it leaves every
// idle guaranteed slot intact: spare is shed first, reserved traffic is
// protected last, mirroring the scheduler's reservation-round/spare-round
// split at the connection-accept edge.
//
// State is sharded by subscriber-ID hash so concurrent accepts, releases,
// and stats scrapes on different subscribers contend only on their own
// shard's mutex. The two global counters live packed in one atomic word
// (total in the high half, reservedIdle in the low half) and move by
// compare-and-swap, so every transition observes both counters at once and
// the invariant holds exactly — split atomics would admit an interleaving
// that overshoots the cap by one.
type admission struct {
	// max is the in-flight request cap; 0 disables admission control.
	max int
	// mask is the shard count minus one.
	mask   uint32
	shards []admissionShard
	// packed is total<<32 | reservedIdle: total is Σ inflight, reservedIdle
	// is Σ max(0, quota−inflight) — guaranteed slots nobody is using right
	// now, which spare admissions must not consume.
	packed atomic.Uint64
}

// admissionShard holds the per-subscriber admission state for one hash
// shard. Each subscriber's entries live in exactly one shard, so its
// quota−inflight contribution to the global reservedIdle changes only under
// this mutex.
type admissionShard struct {
	mu sync.Mutex
	// quota is each subscriber's guaranteed in-flight slot count; zero
	// quotas are not stored.
	quota map[qos.SubscriberID]int
	// inflight is each subscriber's admitted-and-unreleased request count.
	inflight map[qos.SubscriberID]int
	// shed counts refusals per subscriber.
	shed map[qos.SubscriberID]uint64
}

// admissionShards is how many ways the dispatcher shards its per-subscriber
// admission state. A power of two: the shard pick is one AND.
const admissionShards = 16

func packCounts(total, reservedIdle int) uint64 {
	return uint64(uint32(total))<<32 | uint64(uint32(reservedIdle))
}

func unpackCounts(p uint64) (total, reservedIdle int) {
	return int(uint32(p >> 32)), int(uint32(p))
}

// newAdmission splits max in-flight slots over subs; n, the shard count, must
// be a power of two.
func newAdmission(max int, subs []qos.Subscriber, n int) *admission {
	a := &admission{
		max:    max,
		mask:   uint32(n - 1),
		shards: make([]admissionShard, n),
	}
	per := len(subs)/n + 1
	for i := range a.shards {
		sh := &a.shards[i]
		sh.quota = make(map[qos.SubscriberID]int, per)
		sh.inflight = make(map[qos.SubscriberID]int, per)
		sh.shed = make(map[qos.SubscriberID]uint64)
	}
	if max <= 0 {
		return a
	}
	var totalRes float64
	for _, s := range subs {
		totalRes += float64(s.Reservation)
	}
	if totalRes <= 0 {
		return a
	}
	reservedIdle := 0
	for _, s := range subs {
		q := int(float64(max) * float64(s.Reservation) / totalRes)
		if q > 0 {
			a.shardFor(s.ID).quota[s.ID] = q
			reservedIdle += q
		}
	}
	a.packed.Store(packCounts(0, reservedIdle))
	return a
}

// shardFor hashes the subscriber ID (FNV-1a) onto its shard; the hash walks
// the string bytes directly, so the pick allocates nothing.
func (a *admission) shardFor(sub qos.SubscriberID) *admissionShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(sub); i++ {
		h ^= uint32(sub[i])
		h *= prime32
	}
	return &a.shards[h&a.mask]
}

// admit claims an in-flight slot for sub, reporting whether the request may
// proceed. Every true return must be paired with exactly one release.
func (a *admission) admit(sub qos.SubscriberID) bool {
	if a.max <= 0 {
		return true
	}
	sh := a.shardFor(sub)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	in := sh.inflight[sub]
	if in >= sh.quota[sub] {
		// Spare traffic: it must fit without touching idle reserved slots.
		// Check and increment commit in one CAS so a concurrent transition
		// on another shard cannot be half-observed.
		for {
			p := a.packed.Load()
			total, idle := unpackCounts(p)
			if total+idle >= a.max {
				sh.shed[sub]++
				return false
			}
			if a.packed.CompareAndSwap(p, packCounts(total+1, idle)) {
				break
			}
		}
	} else {
		// Reserved traffic consumes one of its own guaranteed slots. Under
		// the shard lock this subscriber alone contributes quota−in ≥ 1
		// unclaimed slots to reservedIdle, so the decrement cannot drive it
		// negative.
		for {
			p := a.packed.Load()
			total, idle := unpackCounts(p)
			if a.packed.CompareAndSwap(p, packCounts(total+1, idle-1)) {
				break
			}
		}
	}
	sh.inflight[sub] = in + 1
	return true
}

// release returns sub's slot. If the subscriber drops back below quota the
// freed slot re-joins the guaranteed pool, atomically with the total
// decrement.
func (a *admission) release(sub qos.SubscriberID) {
	if a.max <= 0 {
		return
	}
	sh := a.shardFor(sub)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	in := sh.inflight[sub] - 1
	sh.inflight[sub] = in
	rejoin := in < sh.quota[sub]
	for {
		p := a.packed.Load()
		total, idle := unpackCounts(p)
		if rejoin {
			idle++
		}
		if a.packed.CompareAndSwap(p, packCounts(total-1, idle)) {
			return
		}
	}
}

// subSnapshot reports one subscriber's admission view for the stats
// endpoint, touching only that subscriber's shard.
func (a *admission) subSnapshot(sub qos.SubscriberID) (quota, inflight int, shed uint64) {
	sh := a.shardFor(sub)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.quota[sub], sh.inflight[sub], sh.shed[sub]
}

// setQuota installs sub's guaranteed in-flight slot count at runtime. The
// global reservedIdle moves by the change in this subscriber's idle
// contribution max(0, quota−inflight), under the shard lock that freezes
// that contribution, so the packed cap invariant total+reservedIdle ≤ max
// is preserved exactly — provided the caller keeps Σ quotas ≤ max (see
// rebalance for the ordering that guarantees it mid-update).
func (a *admission) setQuota(sub qos.SubscriberID, quota int) {
	if a.max <= 0 {
		return
	}
	if quota < 0 {
		quota = 0
	}
	sh := a.shardFor(sub)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := sh.quota[sub]
	if quota == old {
		return
	}
	if quota == 0 {
		delete(sh.quota, sub)
	} else {
		sh.quota[sub] = quota
	}
	in := sh.inflight[sub]
	d := max(0, quota-in) - max(0, old-in)
	for d != 0 {
		p := a.packed.Load()
		total, idle := unpackCounts(p)
		if a.packed.CompareAndSwap(p, packCounts(total, idle+d)) {
			return
		}
	}
}

// rebalance re-derives every subscriber's guaranteed-slot quota from the
// given reservation set — quota_i = floor(max × res_i / Σres), the same
// split newAdmission computes at startup — after the admin control plane
// creates, resizes, or deletes a reservation. Subscribers absent from subs
// lose their quota. Shrinks apply before grows so Σ quotas never transiently
// exceeds max: an overshoot would let reserved admissions (which skip the
// cap check, trusting the quota sum) push total past the cap.
func (a *admission) rebalance(subs []qos.Subscriber) {
	if a.max <= 0 {
		return
	}
	var totalRes float64
	for _, s := range subs {
		totalRes += float64(s.Reservation)
	}
	want := make(map[qos.SubscriberID]int, len(subs))
	if totalRes > 0 {
		for _, s := range subs {
			if q := int(float64(a.max) * float64(s.Reservation) / totalRes); q > 0 {
				want[s.ID] = q
			}
		}
	}
	// Pass 1: shrinks and removals for current holders above target.
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		holders := make([]qos.SubscriberID, 0, len(sh.quota))
		for id := range sh.quota {
			holders = append(holders, id)
		}
		sh.mu.Unlock()
		for _, id := range holders {
			if cur, _, _ := a.subSnapshot(id); want[id] < cur {
				a.setQuota(id, want[id])
			}
		}
	}
	// Pass 2: grows and brand-new holders (setQuota no-ops when unchanged).
	for id, q := range want {
		a.setQuota(id, q)
	}
}
