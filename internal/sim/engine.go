// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock in microseconds and a priority queue
// of scheduled events. Events scheduled for the same instant fire in the
// order they were scheduled, which makes every simulation in this repository
// fully deterministic: the same configuration and seed always produce the
// same trajectory.
//
// The implementation is allocation-free in steady state (see DESIGN §11):
// the queue is a 4-ary heap of {due time, sequence, handler} values in one
// reusable slice, so scheduling pushes an entry and firing pops one and
// calls it. A time-ordered series of events known up front (a trace's
// arrivals) is held as a cursor beside the heap rather than in it; see
// ScheduleSeries. Events cannot be cancelled: a timer that may go stale is
// invalidated by its owner, which checks a stamp or a predicate when the
// handler fires.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Time is a simulation timestamp in microseconds since the start of the run.
type Time int64

// Common time unit conversions.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts t to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders t as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// FromSeconds converts floating-point seconds to a Time, rounding to the
// nearest microsecond.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// FromMilliseconds converts floating-point milliseconds to a Time.
func FromMilliseconds(ms float64) Time { return Time(math.Round(ms * float64(Millisecond))) }

// ErrTimeTravel is returned by Schedule when an event is scheduled before the
// current simulation time.
var ErrTimeTravel = errors.New("sim: event scheduled in the past")

// ErrSeriesOrder is returned by ScheduleSeries when the series is not
// time-ordered or another series is still pending.
var ErrSeriesOrder = errors.New("sim: invalid event series")

// Handler is a callback invoked when an event fires. The engine passes the
// current simulation time (the event's due time).
type Handler func(now Time)

// event is one element of the event queue, held by value (24 bytes).
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among same-time events
	fn  Handler
}

// before orders events by due time, then scheduling order.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapArity is the fan-out of the event queue. A 4-ary heap halves the tree
// depth of a binary heap; sift-down compares up to four children per level,
// but those live in one or two cache lines, so fire-heavy workloads win.
const heapArity = 4

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	queue   []event
	stopped bool
	fired   uint64
	ser     series

	// onEvent, if set, runs after each executed event with the clock at
	// that event's due time (see SetEventHook).
	onEvent func(now Time)
}

// series is the pending part of a ScheduleSeries run: member next is due
// at headAt and carries sequence number base+next+1. Members never enter
// the heap; only the head competes with the heap top.
type series struct {
	n, next int
	base    uint64
	headAt  Time
	at      func(i int) Time
	fn      func(i int, now Time)
}

// pending reports whether the series has unfired members.
func (s *series) pending() bool { return s.next < s.n }

// before reports whether the series head sorts before queued event ev.
func (s *series) before(ev event) bool {
	if s.headAt != ev.at {
		return s.headAt < ev.at
	}
	return s.base+uint64(s.next)+1 < ev.seq
}

// New returns an initialized Engine starting at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are currently scheduled: the queue's
// length plus the unfired members of a pending series (see
// ScheduleSeries).
func (e *Engine) Pending() int { return len(e.queue) + e.ser.n - e.ser.next }

// Schedule registers fn to run at absolute time at. Scheduling in the past
// is an error.
func (e *Engine) Schedule(at Time, fn Handler) error {
	if at < e.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrTimeTravel, at, e.now)
	}
	e.seq++
	e.push(event{at: at, seq: e.seq, fn: fn})
	return nil
}

// ScheduleSeries registers n events at once: member i runs fn(i, now) at
// time at(i). The times must be non-decreasing and not in the past, and
// at most one series may be pending at a time. The members fire exactly
// as if they had been scheduled here by n back-to-back Schedule calls:
// the series reserves the next n sequence numbers, so same-time ties
// with other events resolve in scheduling order. Unlike those calls it
// keeps one cursor instead of n heap entries, so the heap holds only
// the work in flight.
func (e *Engine) ScheduleSeries(n int, at func(i int) Time, fn func(i int, now Time)) error {
	if e.ser.pending() {
		return fmt.Errorf("%w: a series is already pending", ErrSeriesOrder)
	}
	if n < 0 {
		return fmt.Errorf("%w: negative length %d", ErrSeriesOrder, n)
	}
	if n == 0 {
		return nil
	}
	prev := e.now
	for i := 0; i < n; i++ {
		t := at(i)
		if t < prev {
			if i == 0 {
				return fmt.Errorf("%w: at=%v now=%v", ErrTimeTravel, t, e.now)
			}
			return fmt.Errorf("%w: member %d at %v after member %d at %v", ErrSeriesOrder, i, t, i-1, prev)
		}
		prev = t
	}
	e.ser = series{n: n, base: e.seq, headAt: at(0), at: at, fn: fn}
	e.seq += uint64(n)
	return nil
}

// After schedules fn to run d after the current time. Negative delays clamp
// to "now".
func (e *Engine) After(d Time, fn Handler) {
	if d < 0 {
		d = 0
	}
	_ = e.Schedule(e.now+d, fn) // cannot fail: e.now+d >= e.now
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// SetEventHook registers fn to run after every executed event, with the
// clock at that event's due time. Observers such as the invariant
// sanitizer use this to interleave checks with the simulation without
// scheduling events of their own, which would keep a run-to-drain loop
// alive forever. Passing nil removes the hook.
func (e *Engine) SetEventHook(fn func(now Time)) { e.onEvent = fn }

// Step executes the next pending event, advancing the clock to its due time.
// It reports whether an event was executed. The series head fires when its
// (time, sequence) sorts before the heap top, which is exactly where it
// would sit had its members been scheduled individually.
func (e *Engine) Step() bool {
	if e.ser.pending() && (len(e.queue) == 0 || e.ser.before(e.queue[0])) {
		e.fireSeries()
		return true
	}
	if len(e.queue) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.fired++
	ev.fn(e.now)
	if e.onEvent != nil {
		e.onEvent(e.now)
	}
	return true
}

// fireSeries executes the series head and advances the cursor. Once the
// last member is taken the callbacks are dropped, so a finished series
// pins nothing and the handler may install the next one.
func (e *Engine) fireSeries() {
	s := &e.ser
	i, fn := s.next, s.fn
	e.now = s.headAt
	s.next++
	if s.pending() {
		s.headAt = s.at(s.next)
	} else {
		*s = series{}
	}
	e.fired++
	fn(i, e.now)
	if e.onEvent != nil {
		e.onEvent(e.now)
	}
}

// RunUntil executes events until the queue is empty, the engine is stopped,
// or the next event would fire strictly after the deadline. It then moves
// the clock forward to the deadline if the clock is earlier, whichever of
// the three ended the loop.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		at, ok := e.peek()
		if !ok || at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// peek reports the due time of the next event, queued or series head.
func (e *Engine) peek() (Time, bool) {
	if len(e.queue) == 0 {
		return e.ser.headAt, e.ser.pending()
	}
	if e.ser.pending() && e.ser.headAt < e.queue[0].at {
		return e.ser.headAt, true
	}
	return e.queue[0].at, true
}

// push inserts an event into the 4-ary heap.
func (e *Engine) push(ev event) {
	e.queue = append(e.queue, ev)
	i := len(e.queue) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.queue[i].before(e.queue[parent]) {
			break
		}
		e.queue[i], e.queue[parent] = e.queue[parent], e.queue[i]
		i = parent
	}
}

// pop removes and returns the earliest event. The slot it vacates at the
// end of the slice is zeroed, so the backing array never keeps a fired
// handler, or anything its closure holds, reachable.
func (e *Engine) pop() event {
	top := e.queue[0]
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue[n] = event{}
	e.queue = e.queue[:n]
	e.siftDown(0)
	return top
}

// siftDown restores the heap property below index i.
func (e *Engine) siftDown(i int) {
	n := len(e.queue)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.queue[c].before(e.queue[min]) {
				min = c
			}
		}
		if !e.queue[min].before(e.queue[i]) {
			break
		}
		e.queue[i], e.queue[min] = e.queue[min], e.queue[i]
		i = min
	}
}
