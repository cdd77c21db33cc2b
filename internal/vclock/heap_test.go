package vclock

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refEvent is one pending event as the reference holds it.
type refEvent struct {
	key time.Duration // offset from the origin, already clamped
	seq uint64
	id  int
}

func (a refEvent) before(b refEvent) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// refEngine is the queue's specification: pending events kept in a slice
// that is sorted by (instant, sequence) whenever it is read, and the feed's
// items beside it under the one sequence number the Feed call took.
type refEngine struct {
	now     time.Duration
	nextSeq uint64
	pending []refEvent
	feed    []refEvent
}

func (r *refEngine) schedule(at time.Duration, id int) {
	r.pending = append(r.pending, refEvent{max(at, r.now), r.nextSeq, id})
	r.nextSeq++
	sort.Slice(r.pending, func(i, j int) bool { return r.pending[i].before(r.pending[j]) })
}

// stop removes id from the pending events and reports whether it was there,
// with its place among them: 0 head, 1 middle, 2 tail.
func (r *refEngine) stop(id int) (bool, int) {
	for i, ev := range r.pending {
		if ev.id != id {
			continue
		}
		place := 1
		if i == 0 {
			place = 0
		} else if i == len(r.pending)-1 {
			place = 2
		}
		r.pending = append(r.pending[:i], r.pending[i+1:]...)
		return true, place
	}
	return false, 0
}

// step fires the earliest of the pending events and the feed's head.
func (r *refEngine) step() (id int, ok bool) {
	var ev refEvent
	switch {
	case len(r.feed) > 0 && (len(r.pending) == 0 || r.feed[0].before(r.pending[0])):
		ev, r.feed = r.feed[0], r.feed[1:]
	case len(r.pending) > 0:
		ev, r.pending = r.pending[0], r.pending[1:]
	default:
		return 0, false
	}
	r.now = ev.key
	return ev.id, true
}

// checkHeap asserts what Timer.Stop and popMin rely on: every queued event
// knows its position, no event sorts before its parent, and a recycled node
// is marked as out of the heap.
func checkHeap(t *testing.T, e *Engine, op string) {
	t.Helper()
	for i, ev := range e.queue {
		if ev.idx != i {
			t.Fatalf("after %s: queue[%d].idx = %d", op, i, ev.idx)
		}
		if p := e.queue[(i-1)/2]; i > 0 && ev.before(p) {
			t.Fatalf("after %s: queue[%d] (%d,%d) sorts before its parent (%d,%d)", op, i, ev.key, ev.seq, p.key, p.seq)
		}
	}
	for _, ev := range e.free {
		if ev.idx != -1 {
			t.Fatalf("after %s: a recycled node has idx %d", op, ev.idx)
		}
	}
}

// TestHeapMatchesSortedReference drives the engine and the reference through
// the same random script — At (past instants included), AfterArg, Timer.Stop
// on any timer ever handed out, Step, and one Feed — and holds them together
// after every operation: the event fired, the clock, Len and each Stop's
// result. Instants are drawn from a few millisecond slots so that ties, which
// only the sequence number orders, are the common case.
func TestHeapMatchesSortedReference(t *testing.T) {
	const (
		stopHead = iota
		stopMiddle
		stopTail
		stopFired
		stopStale // fired or stopped, and its node already carries a later event
		stopKinds
	)
	var stops [stopKinds]int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		origin := time.Time{}.Add(time.Hour)
		e, ref := NewEngine(origin), &refEngine{}
		var timers []Timer
		fired := -1
		fire := func(arg any) { fired = arg.(int) }
		nextID := 0
		slot := func() time.Duration { return time.Duration(rng.Intn(12)) * time.Millisecond }
		fed := false
		for op := 0; op < 1500; op++ {
			name := ""
			switch k := rng.Intn(10); {
			case k < 2:
				name = "At"
				// Up to 4 ms before the clock: clamped to it.
				at := ref.now + slot() - 4*time.Millisecond
				timers = append(timers, e.AtArg(origin.Add(at), fire, nextID))
				ref.schedule(at, nextID)
				nextID++
			case k < 4:
				name = "AfterArg"
				d := slot()
				timers = append(timers, e.AfterArg(d, fire, nextID))
				ref.schedule(ref.now+d, nextID)
				nextID++
			case k < 6 && len(timers) > 0:
				name = "Stop"
				id := rng.Intn(len(timers))
				tm := timers[id]
				want, place := ref.stop(id)
				switch {
				case want:
					stops[place]++
				case tm.ev != nil && tm.ev.idx >= 0:
					stops[stopStale]++
				default:
					stops[stopFired]++
				}
				if got := tm.Stop(); got != want {
					t.Fatalf("seed %d op %d: Stop(timer %d) = %v, reference says %v", seed, op, id, got, want)
				}
			case k == 6 && !fed && op > 300:
				name = "Feed"
				fed = true
				offs := make([]time.Duration, 200)
				for i := range offs {
					offs[i] = ref.now + slot() + time.Duration(i/20)*time.Millisecond - 2*time.Millisecond
				}
				sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
				first := nextID
				nextID += len(offs)
				for i, off := range offs {
					ref.feed = append(ref.feed, refEvent{max(off, ref.now), ref.nextSeq, first + i})
					timers = append(timers, Timer{}) // keeps ids and timers aligned; Stop reports false
				}
				ref.nextSeq++
				i := 0
				e.Feed(fire, func() (time.Time, any, bool) {
					if i == len(offs) {
						return time.Time{}, nil, false
					}
					i++
					return origin.Add(offs[i-1]), first + i - 1, true
				})
			default:
				name = "Step"
				fired = -1
				id, want := ref.step()
				if got := e.Step(); got != want {
					t.Fatalf("seed %d op %d: Step = %v, reference says %v", seed, op, got, want)
				}
				if want && fired != id {
					t.Fatalf("seed %d op %d: fired event %d, reference fires %d", seed, op, fired, id)
				}
			}
			if e.Len() != len(ref.pending) {
				t.Fatalf("seed %d op %d (%s): Len = %d, reference holds %d", seed, op, name, e.Len(), len(ref.pending))
			}
			if got := e.Now().Sub(origin); got != ref.now {
				t.Fatalf("seed %d op %d (%s): clock at %v, reference at %v", seed, op, name, got, ref.now)
			}
			checkHeap(t, e, name)
		}
		for {
			fired = -1
			id, want := ref.step()
			if got := e.Step(); got != want || fired != id && want {
				t.Fatalf("seed %d draining: Step = %v firing %d, reference %v firing %d", seed, got, fired, want, id)
			}
			if !want {
				break
			}
		}
	}
	for kind, n := range stops {
		if n == 0 {
			t.Errorf("the script never stopped a timer of kind %d (head, middle, tail, fired, stale-after-recycle)", kind)
		}
	}
	t.Logf("stops by kind (head, middle, tail, fired, stale-after-recycle): %v", stops)
}

// BenchmarkEngineDepth is one schedule and one fire with a standing
// population of pending events: the sift loops' cost at the heap depth the
// simulator runs at (Table 1 holds ≈190 events) and well past it. The
// benchmark's vclock.schedule_step_ns layer metric measures the depth-1 case
// only — an engine that is otherwise empty, where there is nothing to sift
// past — so a change to how the heap compares shows here, not there.
func BenchmarkEngineDepth(b *testing.B) {
	for _, depth := range []int{1, 200, 5000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := NewEngine(time.Time{})
			rng := rand.New(rand.NewSource(1))
			nop := func(any) {}
			// Delays up to depth µs around a mean of depth/2: with one event
			// fired per one scheduled, the population stays near depth.
			delay := func() time.Duration { return time.Duration(rng.Intn(depth)+1) * time.Microsecond }
			for i := 0; i < depth-1; i++ {
				e.AfterArg(delay(), nop, nil)
			}
			delays := make([]time.Duration, 1024)
			for i := range delays {
				delays[i] = delay()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.AfterArg(delays[i%len(delays)], nop, nil)
				e.Step()
			}
		})
	}
}
