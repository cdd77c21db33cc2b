package vclock

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// firing is one callback as the differential test logs it: which event and
// the clock it saw. A negative id is a marker the driver wrote between
// driving calls.
type firing struct {
	id int
	at time.Time
}

// diffRun drives one engine through a seeded script. Every decision comes
// from rng in firing order, so two engines that fire the same sequence draw
// the same decisions and one that diverges shows it in the log.
type diffRun struct {
	e      *Engine
	rng    *rand.Rand
	log    []firing
	timers []Timer
	nextID int
}

// slot draws an instant offset from a small set of millisecond multiples, so
// equal instants are the common case.
func (r *diffRun) slot(n int) time.Duration {
	return time.Duration(r.rng.Intn(n)) * time.Millisecond
}

func (r *diffRun) schedule(d time.Duration) {
	id := r.nextID
	r.nextID++
	r.timers = append(r.timers, r.e.AfterArg(d, r.fire, id))
}

// fire logs the event, then schedules a child at or shortly after this
// instant, or stops an earlier timer (often one that already fired).
func (r *diffRun) fire(arg any) {
	r.log = append(r.log, firing{arg.(int), r.e.Now()})
	switch r.rng.Intn(4) {
	case 0:
		r.schedule(r.slot(3))
	case 1:
		r.timers[r.rng.Intn(len(r.timers))].Stop()
	}
}

func (r *diffRun) mark(id int) { r.log = append(r.log, firing{id, r.e.Now()}) }

// runDiff plays the script for one seed. With feed the sorted items go in
// through Feed; without, each is registered with AtArg at the same point.
func runDiff(t *testing.T, seed int64, feed bool) []firing {
	t.Helper()
	origin := time.Time{}.Add(time.Hour)
	r := &diffRun{e: NewEngine(origin), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 30; i++ {
		r.schedule(r.slot(24))
	}
	// Move the clock so that the items' earliest instants are in the past.
	if err := r.e.RunUntil(origin.Add(3 * time.Millisecond)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	r.mark(-1)

	offsets := make([]time.Duration, 300)
	for i := range offsets {
		offsets[i] = r.slot(24)
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	first := r.nextID
	r.nextID += len(offsets)
	if feed {
		i := 0
		r.e.Feed(r.fire, func() (time.Time, any, bool) {
			if i == len(offsets) {
				return time.Time{}, nil, false
			}
			i++
			return origin.Add(offsets[i-1]), first + i - 1, true
		})
	} else {
		for i, off := range offsets {
			r.e.AtArg(origin.Add(off), r.fire, first+i)
		}
	}
	for i := 0; i < 30; i++ {
		r.schedule(r.slot(24))
	}

	for i := r.rng.Intn(20); i > 0; i-- {
		if !r.e.Step() {
			t.Fatal("Step fired nothing with events pending")
		}
	}
	r.mark(-2)
	// Every instant is a whole millisecond, so this deadline lands on a tie:
	// all of its events fire, none of the next millisecond's.
	deadline := origin.Add(12 * time.Millisecond)
	if err := r.e.RunUntil(deadline); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if !r.e.Now().Equal(deadline) {
		t.Fatalf("clock after RunUntil = %v, want %v", r.e.Now(), deadline)
	}
	r.mark(-3)
	if err := r.e.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if r.e.Len() != 0 {
		t.Fatalf("events pending after Drain: %d", r.e.Len())
	}
	return r.log
}

// TestFeedMatchesPreRegistration is the feed's determinism contract: an
// engine given a Feed fires the identical sequence, at identical clocks, as
// one on which the same items were AtArg-registered where Feed was called —
// through equal instants, Timer.Stops, events scheduled from callbacks, past
// instants, Step, a RunUntil deadline on a tie, and Drain.
func TestFeedMatchesPreRegistration(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		got, want := runDiff(t, seed, true), runDiff(t, seed, false)
		if len(got) != len(want) {
			t.Fatalf("seed %d: feed fired %d events, pre-registration %d", seed, len(got), len(want))
		}
		if len(got) < 330 {
			t.Fatalf("seed %d: only %d firings logged", seed, len(got))
		}
		for i := range want {
			if got[i].id != want[i].id || !got[i].at.Equal(want[i].at) {
				t.Fatalf("seed %d: firing %d = %+v, pre-registration fired %+v", seed, i, got[i], want[i])
			}
		}
	}
}

func sliceFeed(origin time.Time, offsets ...time.Duration) func() (time.Time, any, bool) {
	i := 0
	return func() (time.Time, any, bool) {
		if i == len(offsets) {
			return time.Time{}, nil, false
		}
		i++
		return origin.Add(offsets[i-1]), i - 1, true
	}
}

// TestFeedTieRule pins the order at one instant: scheduled before the Feed
// call, then the feed's items in stream order, then scheduled after it.
func TestFeedTieRule(t *testing.T) {
	e := NewEngine(time.Time{})
	var got []string
	ms := time.Millisecond
	e.After(ms, func() { got = append(got, "before") })
	e.Feed(func(arg any) {
		got = append(got, []string{"item0", "item1"}[arg.(int)])
		e.After(0, func() { got = append(got, "child") })
	}, sliceFeed(time.Time{}, ms, ms))
	e.After(ms, func() { got = append(got, "after") })
	if err := e.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	want := []string{"before", "item0", "item1", "after", "child", "child"}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFeedPastInstantsClampToNow(t *testing.T) {
	origin := time.Time{}.Add(time.Hour)
	e := NewEngine(origin)
	var at []time.Time
	e.Feed(func(any) { at = append(at, e.Now()) }, sliceFeed(time.Time{}, 0, time.Minute, 2*time.Hour))
	if !e.Step() || !e.Step() || !e.Step() || e.Step() {
		t.Fatal("Step must fire each of the three items and then nothing")
	}
	want := []time.Time{origin, origin, time.Time{}.Add(2 * time.Hour)}
	for i := range want {
		if !at[i].Equal(want[i]) {
			t.Errorf("item %d fired at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestFeedOneAtATime(t *testing.T) {
	e := NewEngine(time.Time{})
	fired := 0
	count := func(any) { fired++ }
	e.Feed(count, sliceFeed(time.Time{}, time.Millisecond))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second Feed beside a live one must panic")
			}
		}()
		e.Feed(count, sliceFeed(time.Time{}, time.Millisecond))
	}()
	if err := e.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	// The first has run dry: the engine takes another.
	e.Feed(count, sliceFeed(e.Now(), time.Millisecond, time.Hour))
	if err := e.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if fired != 2 {
		t.Errorf("fired %d items by the deadline, want 2", fired)
	}
	if err := e.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if fired != 3 {
		t.Errorf("fired %d items after Drain, want 3", fired)
	}
}

// TestFeedHoldsNoHeapEntries is the point of the feed: a million-item stream
// beside a ticker, each item scheduling a follow-up hop as an arrival does,
// never has more than those two events in the heap.
func TestFeedHoldsNoHeapEntries(t *testing.T) {
	const items = 1_000_000
	e := NewEngine(time.Time{})
	ticks := 0
	e.Every(time.Millisecond, func() { ticks++ })
	var fired, hops, maxLen int
	hop := func(any) { hops++ }
	i := 0
	e.Feed(func(any) {
		fired++
		e.AfterArg(time.Microsecond, hop, nil)
		if n := e.Len(); n > maxLen {
			maxLen = n
		}
	}, func() (time.Time, any, bool) {
		if i == items {
			return time.Time{}, nil, false
		}
		i++
		return time.Time{}.Add(time.Duration(i) * 10 * time.Microsecond), nil, true
	})
	if got := e.Len(); got != 1 {
		t.Fatalf("Len after Feed = %d, want 1 (the ticker)", got)
	}
	if err := e.RunFor(items*10*time.Microsecond + time.Millisecond); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if fired != items || hops != items {
		t.Fatalf("fired %d items and %d hops, want %d each", fired, hops, items)
	}
	if ticks != items/100+1 {
		t.Errorf("ticker fired %d times, want %d", ticks, items/100+1)
	}
	if maxLen > 2 {
		t.Errorf("Len peaked at %d with two non-feed events alive, want ≤ 2", maxLen)
	}
}
