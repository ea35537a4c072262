package sim

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

// This file cross-checks the slab engine against a reference engine built
// the way the original implementation was: container/heap over *event
// pointers with a byID map. The property tests drive both with identical
// operation scripts and require event-for-event agreement.

type refEvent struct {
	at   Time
	seq  uint64
	fn   Handler
	dead bool
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
// events, lazy cancellation, clock advance on fire.
type refEngine struct {
	now     Time
	seq     uint64
	queue   refHeap
	stopped bool
}

func (e *refEngine) schedule(at Time, fn Handler) *refEvent {
	if at < e.now {
		panic("ref: schedule in past")
	}
	e.seq++
	ev := &refEvent{at: at, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) after(d Time, fn Handler) *refEvent {
	if d < 0 {
		d = 0
	}
	return e.schedule(e.now+d, fn)
}

func (e *refEngine) cancel(ev *refEvent) bool {
	if ev.dead {
		return false
	}
	ev.dead = true
	return true
}

func (e *refEngine) step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.dead {
			continue
		}
		ev.dead = true
		e.now = ev.at
		ev.fn(e.now)
		return true
	}
	return false
}

// runUntil mirrors Engine.RunUntil: fire while the next live event is due
// by the deadline and no handler has called stop.
func (e *refEngine) runUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		for len(e.queue) > 0 && e.queue[0].dead {
			heap.Pop(&e.queue)
		}
		if len(e.queue) == 0 || e.queue[0].at > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// pending counts the scheduled events that have neither fired nor been
// cancelled.
func (e *refEngine) pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.dead {
			n++
		}
	}
	return n
}

// firing records one executed event for trajectory comparison.
type firing struct {
	label int
	at    Time
}

// TestSlabEngineMatchesHeapReference drives the slab engine and the
// container/heap reference with the same randomized script — schedules,
// cancellations (including of already-fired and already-cancelled events),
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
		ids := make(map[int]EventID)
		refs := make(map[int]*refEvent)
		known := make([]int, 0, 64)

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
			label := nextLabel
			nextLabel++
			eh, rh := handlers(label)
			ids[label] = eng.After(delay, eh)
			refs[label] = ref.after(delay, rh)
			known = append(known, label)
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
			case k < 7 && len(known) > 0:
				label := known[rng.Intn(len(known))]
				got := eng.Cancel(ids[label])
				want := ref.cancel(refs[label])
				if got != want {
					t.Fatalf("seed %d: Cancel(label %d) = %v, reference %v", seed, label, got, want)
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
			if got, want := eng.Pending(), ref.pending(); got != want {
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

// TestPendingAcrossInterleavings checks the maintained live counter against
// a naive recount through random Schedule/Cancel/Step interleavings.
func TestPendingAcrossInterleavings(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		eng := New()
		livePending := 0 // naive shadow count
		var ids []EventID
		for op := 0; op < 500; op++ {
			switch k := rng.Intn(10); {
			case k < 5:
				ids = append(ids, eng.After(Time(rng.Intn(200)), func(Time) {}))
				livePending++
			case k < 8 && len(ids) > 0:
				if eng.Cancel(ids[rng.Intn(len(ids))]) {
					livePending--
				}
			default:
				if eng.Step() {
					livePending--
				}
			}
			if got := eng.Pending(); got != livePending {
				t.Fatalf("seed %d op %d: Pending() = %d, want %d", seed, op, got, livePending)
			}
		}
	}
}

// TestCancelStaleIDAfterSlotReuse verifies that an EventID kept across its
// slot's reuse (fire, then schedule again) never cancels the new tenant.
func TestCancelStaleIDAfterSlotReuse(t *testing.T) {
	eng := New()
	stale := eng.After(1, func(Time) {})
	eng.Run() // fires; slot is freed
	fired := false
	fresh := eng.After(1, func(Time) { fired = true }) // reuses the slot
	if stale.slot() != fresh.slot() {
		t.Fatalf("expected slot reuse, got %d then %d", stale.slot(), fresh.slot())
	}
	if eng.Cancel(stale) {
		t.Fatal("stale EventID cancelled the slot's new tenant")
	}
	eng.Run()
	if !fired {
		t.Fatal("fresh event did not fire")
	}
}

// TestSteadyStateZeroAllocs pins the 0 allocs/op contract for the engine
// hot paths: scheduling into a warmed slab, firing, and cancelling.
func TestSteadyStateZeroAllocs(t *testing.T) {
	eng := New()
	fn := Handler(func(Time) {})
	// Warm the slab and queue beyond the working set used below.
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
		id := eng.After(10, fn)
		eng.Cancel(id)
	}); n != 0 {
		t.Errorf("schedule+cancel: %v allocs/op, want 0", n)
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

// TestCancelHeavyQueueBounded pins the compaction guarantee: a workload
// that schedules and cancels without ever firing keeps the queue bounded
// by roughly twice the live population, and the survivors still fire in
// exact (time, seq) order afterwards.
func TestCancelHeavyQueueBounded(t *testing.T) {
	eng := New()
	var kept []EventID
	var order []int
	label := 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 50; i++ {
			id := eng.After(Time(1000+round*50+i), func(Time) {})
			if i == 0 {
				l := label
				kept = append(kept, eng.After(Time(500+round), func(Time) { order = append(order, l) }))
				label++
			}
			if !eng.Cancel(id) {
				t.Fatal("cancel of pending event failed")
			}
		}
		if max := 2*eng.Pending() + compactMin; len(eng.queue) > max {
			t.Fatalf("round %d: queue holds %d entries for %d live events (cap %d)",
				round, len(eng.queue), eng.Pending(), max)
		}
	}
	eng.Run()
	if len(order) != len(kept) {
		t.Fatalf("fired %d of %d surviving events", len(order), len(kept))
	}
	for i, l := range order {
		if l != i {
			t.Fatalf("firing %d has label %d; compaction broke heap order", i, l)
		}
	}
}
