package sim

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

// This file cross-checks the engine against a reference engine built the
// way the original implementation was: container/heap over *event
// pointers. The property tests drive both with identical operation
// scripts and require event-for-event agreement.

type refEvent struct {
	at  Time
	seq uint64
	fn  Handler
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }

// refEngine reproduces the original engine semantics: FIFO among same-time
// events, clock advance on fire.
type refEngine struct {
	now     Time
	seq     uint64
	queue   refHeap
	stopped bool
}

func (e *refEngine) schedule(at Time, fn Handler) {
	if at < e.now {
		panic("ref: schedule in past")
	}
	e.seq++
	heap.Push(&e.queue, &refEvent{at: at, seq: e.seq, fn: fn})
}

func (e *refEngine) after(d Time, fn Handler) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, fn)
}

func (e *refEngine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*refEvent)
	e.now = ev.at
	ev.fn(e.now)
	return true
}

// runUntil mirrors Engine.RunUntil: fire while the next event is due by
// the deadline and no handler has called stop.
func (e *refEngine) runUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// firing records one executed event for trajectory comparison.
type firing struct {
	label int
	at    Time
}

// TestSlabEngineMatchesHeapReference drives the engine and the
// container/heap reference with the same randomized script — schedules,
// partial stepping, and handlers that schedule follow-up events — and
// asserts both fire the same labels at the same times in the same order.
// From seed 50 on the script also installs event series: the engine takes
// each as one ScheduleSeries call, the reference as individual schedules
// at the same point. Members tie with ordinary and handler-scheduled
// events at the same microsecond, some members call Stop, RunUntil
// deadlines fall between members, and Pending must agree after every op.
func TestSlabEngineMatchesHeapReference(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		withSeries := seed >= 50
		rng := rand.New(rand.NewSource(seed))

		eng := New()
		ref := &refEngine{}
		var engLog, refLog []firing

		nextLabel := 0

		// handlers builds the engine and reference handlers of one label; a
		// third of them chain a follow-up event when they fire (a seventh of
		// those at delay 0, tying with whatever else is due then), and in
		// series scripts an eleventh call Stop.
		handlers := func(label int) (eh, rh Handler) {
			chain := label%3 == 0
			stop := withSeries && label%11 == 0
			eh = func(now Time) {
				engLog = append(engLog, firing{label, now})
				if chain {
					eng.After(Time(label%7)*5, func(now Time) {
						engLog = append(engLog, firing{-label, now})
					})
				}
				if stop {
					eng.Stop()
				}
			}
			rh = func(now Time) {
				refLog = append(refLog, firing{label, now})
				if chain {
					ref.after(Time(label%7)*5, func(now Time) {
						refLog = append(refLog, firing{-label, now})
					})
				}
				if stop {
					ref.stopped = true
				}
			}
			return eh, rh
		}

		// schedule registers one labeled event on both engines.
		schedule := func(delay Time) {
			eh, rh := handlers(nextLabel)
			nextLabel++
			eng.After(delay, eh)
			ref.after(delay, rh)
		}

		// series installs m members on the engine as one series and on the
		// reference as m individual schedules. Offsets are drawn from the
		// same range as ordinary delays and sorted, so members repeat
		// times among themselves and with other events.
		series := func(m int) {
			at := make([]Time, m)
			for i := range at {
				at[i] = eng.Now() + Time(rng.Intn(1000))
			}
			sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
			first := nextLabel
			nextLabel += m
			ehs := make([]Handler, m)
			for i := range at {
				var rh Handler
				ehs[i], rh = handlers(first + i)
				ref.schedule(at[i], rh)
			}
			if err := eng.ScheduleSeries(m, func(i int) Time { return at[i] },
				func(i int, now Time) { ehs[i](now) }); err != nil {
				t.Fatalf("seed %d: ScheduleSeries: %v", seed, err)
			}
		}

		ops := 300 + rng.Intn(300)
		for op := 0; op < ops; op++ {
			switch k := rng.Intn(12); {
			case k < 5:
				schedule(Time(rng.Intn(1000)))
			case k == 10 && withSeries && !eng.ser.pending():
				series(1 + rng.Intn(40))
			case k == 11 && withSeries:
				deadline := eng.Now() + Time(rng.Intn(300))
				eng.RunUntil(deadline)
				ref.runUntil(deadline)
				if eng.Now() != ref.now {
					t.Fatalf("seed %d: RunUntil(%v) left clock %v, reference %v", seed, deadline, eng.Now(), ref.now)
				}
			default:
				got := eng.Step()
				want := ref.step()
				if got != want {
					t.Fatalf("seed %d: Step() = %v, reference %v", seed, got, want)
				}
				if eng.Now() != ref.now {
					t.Fatalf("seed %d: clock %v, reference %v", seed, eng.Now(), ref.now)
				}
			}
			if got, want := eng.Pending(), len(ref.queue); got != want {
				t.Fatalf("seed %d op %d: Pending() = %d, reference %d", seed, op, got, want)
			}
		}
		// Drain both and compare the full trajectories.
		for eng.Step() {
		}
		for ref.step() {
		}
		if len(engLog) != len(refLog) {
			t.Fatalf("seed %d: fired %d events, reference %d", seed, len(engLog), len(refLog))
		}
		for i := range engLog {
			if engLog[i] != refLog[i] {
				t.Fatalf("seed %d: firing %d = %+v, reference %+v", seed, i, engLog[i], refLog[i])
			}
		}
	}
}

// TestPendingAcrossInterleavings checks Pending against a naive recount
// through random Schedule/ScheduleSeries/Step interleavings.
func TestPendingAcrossInterleavings(t *testing.T) {
	noop := func(int, Time) {}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		eng := New()
		pending := 0 // naive shadow count
		for op := 0; op < 500; op++ {
			switch k := rng.Intn(10); {
			case k < 5:
				eng.After(Time(rng.Intn(200)), func(Time) {})
				pending++
			case k < 6 && !eng.ser.pending():
				m, base := rng.Intn(20), eng.Now()
				if err := eng.ScheduleSeries(m, func(i int) Time { return base + Time(i*7) }, noop); err != nil {
					t.Fatalf("seed %d op %d: ScheduleSeries: %v", seed, op, err)
				}
				pending += m
			default:
				if eng.Step() {
					pending--
				}
			}
			if got := eng.Pending(); got != pending {
				t.Fatalf("seed %d op %d: Pending() = %d, want %d", seed, op, got, pending)
			}
		}
	}
}

// TestSteadyStateZeroAllocs pins the 0 allocs/op contract for the engine
// hot paths: scheduling into a warmed queue and firing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	eng := New()
	fn := Handler(func(Time) {})
	// Warm the queue beyond the working set used below.
	for i := 0; i < 64; i++ {
		eng.After(Time(i), fn)
	}
	eng.Run()

	if n := testing.AllocsPerRun(200, func() {
		eng.After(10, fn)
		eng.Step()
	}); n != 0 {
		t.Errorf("schedule+fire: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			eng.After(Time(i%5), fn)
		}
		eng.Run()
	}); n != 0 {
		t.Errorf("burst schedule+drain: %v allocs/op, want 0", n)
	}
	// A series interleaved with heap events: the members' handler
	// schedules a follow-up, so the head keeps competing with the heap.
	var base Time
	at := func(i int) Time { return base + Time(i/2) }
	member := func(int, Time) { eng.After(1, fn) }
	if n := testing.AllocsPerRun(200, func() {
		base = eng.Now()
		if err := eng.ScheduleSeries(32, at, member); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}); n != 0 {
		t.Errorf("series schedule+drain: %v allocs/op, want 0", n)
	}
}

// TestQueueKeepsNoFiredHandler checks that a drained engine holds no
// handler anywhere in its queue's backing array: every slot a pop
// vacates is zeroed, so a fired closure, and whatever it captured, can be
// collected while the engine lives on. A series runs interleaved with
// the burst, so its members' follow-ups pass through the heap too.
func TestQueueKeepsNoFiredHandler(t *testing.T) {
	eng := New()
	rng := rand.New(rand.NewSource(7))
	follow := func(Time) {}
	for i := 0; i < 200; i++ {
		eng.After(Time(rng.Intn(500)), func(Time) {})
	}
	if err := eng.ScheduleSeries(100, func(i int) Time { return Time(5 * i) },
		func(int, Time) { eng.After(3, follow) }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("Pending() = %d after Run", eng.Pending())
	}
	for i, ev := range eng.queue[:cap(eng.queue)] {
		if ev.fn != nil {
			t.Fatalf("queue slot %d of %d keeps a fired handler (due %v)", i, cap(eng.queue), ev.at)
		}
	}
	if eng.ser.fn != nil || eng.ser.at != nil {
		t.Fatal("drained series keeps its callbacks")
	}
}
