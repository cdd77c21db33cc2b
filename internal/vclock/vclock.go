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
package vclock

import (
	"container/heap"
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
	heap.Remove(&ev.eng.queue, ev.idx)
	ev.eng.recycle(ev)
	return true
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.idx = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all components of one simulation share one goroutine.
type Engine struct {
	now     time.Time
	queue   eventHeap
	free    []*event // recycled event nodes; steady state allocates none
	nextSeq uint64
	stopped bool

	// The feed: feedNext is nil when there is none or it has run dry;
	// otherwise feedAt/feedArg hold its head, already clamped to the clock.
	feedFn   func(any)
	feedNext func() (time.Time, any, bool)
	feedSeq  uint64
	feedAt   time.Time
	feedArg  any
}

// NewEngine returns an engine whose clock starts at the given origin.
// A zero origin is valid and convenient: times are then just offsets.
func NewEngine(origin time.Time) *Engine {
	return &Engine{now: origin}
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
	if t.Before(e.now) {
		t = e.now
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{eng: e}
	}
	ev.at, ev.seq, ev.fn, ev.argFn, ev.arg = t, e.nextSeq, fn, argFn, arg
	e.nextSeq++
	heap.Push(&e.queue, ev)
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
	e.feedFn, e.feedNext, e.feedSeq = fn, next, e.nextSeq
	e.nextSeq++
	e.pullFeed()
}

// pullFeed loads the feed's next item as its head, or drops the feed once
// the stream has run dry.
func (e *Engine) pullFeed() {
	at, arg, ok := e.feedNext()
	if !ok {
		e.feedFn, e.feedNext, e.feedArg = nil, nil, nil
		return
	}
	if at.Before(e.now) {
		at = e.now
	}
	e.feedAt, e.feedArg = at, arg
}

// next reports the next event to fire: its instant and whether it is the
// feed's head rather than the heap's top, by the (instant, sequence) rule
// that orders the heap. ok is false when nothing is pending.
func (e *Engine) next() (at time.Time, feed, ok bool) {
	if len(e.queue) == 0 {
		return e.feedAt, true, e.feedNext != nil
	}
	top := e.queue[0]
	if e.feedNext == nil {
		return top.at, false, true
	}
	if !e.feedAt.Equal(top.at) {
		feed = e.feedAt.Before(top.at)
	} else {
		feed = e.feedSeq < top.seq
	}
	if feed {
		return e.feedAt, true, true
	}
	return top.at, false, true
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
		e.now = e.feedAt
		fn, arg := e.feedFn, e.feedArg
		// Advance before running, as the heap path recycles before running:
		// the callback sees an engine already past this item.
		e.pullFeed()
		fn(arg)
		return
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
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
	for {
		if e.stopped {
			return ErrStopped
		}
		at, feed, ok := e.next()
		if !ok || at.After(deadline) {
			break
		}
		e.fire(feed)
	}
	if e.now.Before(deadline) {
		e.now = deadline
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
