// Package vclock provides the virtual-time discrete-event engine that drives
// Gage's cluster and network simulators, plus a real-clock adapter so the
// same scheduling code can run against wall time in the live dispatcher.
//
// The engine is deterministic: events scheduled for the same instant fire in
// FIFO order of scheduling, so simulation runs are exactly reproducible.
// Every scheduling call takes the next sequence number and events fire in
// (instant, sequence) order. A Feed — one time-sorted stream pulled an item
// at a time instead of being scheduled item by item — takes a single
// sequence number when it is registered and all of its items fire under it:
// at one instant, events scheduled before the Feed call come first, then the
// feed's items in stream order, then events scheduled after it. That is the
// order registering every item with AtArg at the point of the Feed call
// would give, without holding the items in the heap.
//
// Only integers are compared: an event's key is its instant's nanosecond
// offset from the engine's origin, which must be within ±292 years of it.
package vclock

import (
	"errors"
	"time"
)

// Clock exposes the current time to components that must work both in
// simulation and against wall time.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
}

// ErrStopped is returned by Run variants after Stop has been called.
var ErrStopped = errors.New("vclock: engine stopped")

// event is one scheduled callback. Nodes are recycled through the engine's
// free list once fired or cancelled; gen disambiguates a recycled node from
// the one a stale Timer still points at.
type event struct {
	at    time.Time
	key   int64  // at as an offset from the engine's origin: what the heap compares
	seq   uint64 // FIFO tie-break for identical times
	gen   uint32 // bumped on recycle; stale Timer.Stop becomes a no-op
	fn    func()
	argFn func(any)
	arg   any
	eng   *Engine
	idx   int // index in heap, -1 once popped or cancelled
}

// Timer handles a scheduled event and allows cancellation. The zero Timer is
// valid and Stop on it reports false.
type Timer struct {
	ev  *event
	gen uint32
}

// Stop cancels the timer. It reports whether the event was still pending.
// Stopping an already-fired, already-stopped, or zero Timer is a safe no-op:
// the generation check keeps a stale handle from cancelling whatever event
// reuses its node.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.idx < 0 {
		return false
	}
	ev.eng.queue.remove(ev.idx)
	ev.eng.recycle(ev)
	return true
}

// eventHeap is a binary min-heap of pending events ordered by (key, seq),
// each event's idx kept equal to its position so a Timer can remove it.
type eventHeap []*event

// before is the engine's one ordering rule.
func (a *event) before(b *event) bool {
	return a.key < b.key || (a.key == b.key && a.seq < b.seq)
}

// remove takes out the event at position i; the last event fills the hole.
func (h *eventHeap) remove(i int) *event {
	q := *h
	ev, last := q[i], q[len(q)-1]
	q[len(q)-1] = nil
	*h = q[:len(q)-1]
	ev.idx = -1
	if last != ev && !h.down(i, last) {
		h.up(i, last)
	}
	return ev
}

// up places ev at free position i or above it.
func (h eventHeap) up(i int, ev *event) {
	for i > 0 && ev.before(h[(i-1)/2]) {
		h[i], h[(i-1)/2].idx = h[(i-1)/2], i
		i = (i - 1) / 2
	}
	h[i], ev.idx = ev, i
}

// down places ev at free position i or below it, and reports if below.
func (h eventHeap) down(i int, ev *event) bool {
	start := i
	for c := 2*i + 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(ev) {
			break
		}
		h[i], h[c].idx = h[c], i
		i = c
	}
	h[i], ev.idx = ev, i
	return i > start
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all components of one simulation share one goroutine.
type Engine struct {
	origin  time.Time // what keys are offsets from
	now     time.Time
	nowKey  int64
	queue   eventHeap
	free    []*event // recycled event nodes; steady state allocates none
	nextSeq uint64
	stopped bool

	// The feed: feedNext is nil when there is none or it has run dry;
	// otherwise feed is its head (at and key clamped to the clock, seq, arg).
	feedFn   func(any)
	feedNext func() (time.Time, any, bool)
	feed     event
}

// NewEngine returns an engine whose clock starts at the given origin.
// A zero origin is valid and convenient: times are then just offsets.
func NewEngine(origin time.Time) *Engine {
	return &Engine{origin: origin, now: origin}
}

// clamp returns t and its key, both moved up to the clock when t is past.
func (e *Engine) clamp(t time.Time) (time.Time, int64) {
	key := int64(t.Sub(e.origin))
	if key < e.nowKey {
		return e.now, e.nowKey
	}
	return t, key
}

var _ Clock = (*Engine)(nil)

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// Len returns the number of pending scheduled events. A feed's items are
// not counted: they are pulled one at a time and never held by the engine.
func (e *Engine) Len() int { return len(e.queue) }

// At schedules fn to run at instant t. Scheduling in the past (before Now)
// clamps to Now, which makes "run immediately" idioms safe.
func (e *Engine) At(t time.Time, fn func()) Timer {
	return e.schedule(t, fn, nil, nil)
}

// After schedules fn to run d from now.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	return e.schedule(e.now.Add(d), fn, nil, nil)
}

// AtArg schedules fn(arg) at instant t. With a shared top-level fn and a
// pointer-typed arg this is allocation-free where a closure capturing the
// same state would allocate per event — the idiom for simulator hot paths.
func (e *Engine) AtArg(t time.Time, fn func(any), arg any) Timer {
	return e.schedule(t, nil, fn, arg)
}

// AfterArg schedules fn(arg) to run d from now.
func (e *Engine) AfterArg(d time.Duration, fn func(any), arg any) Timer {
	return e.schedule(e.now.Add(d), nil, fn, arg)
}

func (e *Engine) schedule(t time.Time, fn func(), argFn func(any), arg any) Timer {
	t, key := e.clamp(t)
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{eng: e}
	}
	ev.at, ev.key, ev.seq, ev.fn, ev.argFn, ev.arg = t, key, e.nextSeq, fn, argFn, arg
	e.nextSeq++
	e.queue = append(e.queue, ev)
	e.queue.up(len(e.queue)-1, ev)
	return Timer{ev: ev, gen: ev.gen}
}

// Feed merges a stream of events into the engine's order: next yields the
// stream's items — instant, argument, and false once it has run dry — in
// non-decreasing time order, and each fires as fn(arg) exactly where an
// AtArg(instant, fn, arg) made at the point of this call would have fired
// it (see the package comment for the tie rule). An instant in the past
// clamps to Now, as with At. The engine holds one item of the stream at a
// time, so a long arrival trace costs no heap entries. An engine takes one
// feed at a time; Feed panics if the previous one has not run dry.
func (e *Engine) Feed(fn func(any), next func() (time.Time, any, bool)) {
	if e.feedNext != nil {
		panic("vclock: engine already has a feed")
	}
	e.feedFn, e.feedNext, e.feed.seq = fn, next, e.nextSeq
	e.nextSeq++
	e.pullFeed()
}

// pullFeed loads the feed's next item as its head, or drops the feed once
// the stream has run dry.
func (e *Engine) pullFeed() {
	at, arg, ok := e.feedNext()
	if !ok {
		e.feedFn, e.feedNext, e.feed.arg = nil, nil, nil
		return
	}
	e.feed.at, e.feed.key = e.clamp(at)
	e.feed.arg = arg
}

// next reports the next event to fire: its key and whether it is the feed's
// head rather than the heap's top, by the (key, sequence) rule that orders
// the heap. ok is false when nothing is pending.
func (e *Engine) next() (key int64, feed, ok bool) {
	if len(e.queue) == 0 {
		return e.feed.key, true, e.feedNext != nil
	}
	top := e.queue[0]
	if e.feedNext != nil && e.feed.before(top) {
		return e.feed.key, true, true
	}
	return top.key, false, true
}

// recycle returns a popped or cancelled event node to the free list. The
// generation bump invalidates every Timer handed out for this node.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.argFn, ev.arg = nil, nil, nil
	e.free = append(e.free, ev)
}

// Every schedules fn to run every period, starting one period from now, until
// the returned Timer chain is stopped via the returned stop function.
func (e *Engine) Every(period time.Duration, fn func()) (stop func()) {
	var (
		timer   Timer
		stopped bool
	)
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			timer = e.After(period, tick)
		}
	}
	timer = e.After(period, tick)
	return func() {
		stopped = true
		timer.Stop()
	}
}

// Step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	_, feed, ok := e.next()
	if ok {
		e.fire(feed)
	}
	return ok
}

// fire runs the event next reported, advancing the clock to its time.
func (e *Engine) fire(feed bool) {
	if feed {
		e.now, e.nowKey = e.feed.at, e.feed.key
		fn, arg := e.feedFn, e.feed.arg
		// Advance before running, as the heap path recycles before running:
		// the callback sees an engine already past this item.
		e.pullFeed()
		fn(arg)
		return
	}
	ev := e.queue.remove(0)
	e.now, e.nowKey = ev.at, ev.key
	fn, argFn, arg := ev.fn, ev.argFn, ev.arg
	// Recycle before running: the callback may schedule new events (reusing
	// this node) and any Timer for this firing is already invalidated.
	e.recycle(ev)
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
}

// Stop halts the engine: Run and Step become no-ops.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// RunUntil fires events in order until the queue empties, the engine is
// stopped, or the next event lies after deadline. The clock is left at
// min(deadline, last fired event). It returns ErrStopped if halted by Stop.
func (e *Engine) RunUntil(deadline time.Time) error {
	deadlineKey := int64(deadline.Sub(e.origin))
	for {
		if e.stopped {
			return ErrStopped
		}
		key, feed, ok := e.next()
		if !ok || key > deadlineKey {
			break
		}
		e.fire(feed)
	}
	if e.nowKey < deadlineKey {
		e.now, e.nowKey = deadline, deadlineKey
	}
	return nil
}

// RunFor advances the simulation by d from the current time.
func (e *Engine) RunFor(d time.Duration) error {
	return e.RunUntil(e.now.Add(d))
}

// Drain fires all pending events regardless of time. Use with care: with
// self-rescheduling periodic events this never returns; prefer RunUntil.
func (e *Engine) Drain() error {
	for e.Step() {
	}
	if e.stopped {
		return ErrStopped
	}
	return nil
}

// RealClock adapts the wall clock to the Clock interface.
type RealClock struct{}

var _ Clock = RealClock{}

// Now returns time.Now().
func (RealClock) Now() time.Time { return time.Now() }
