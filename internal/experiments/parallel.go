package experiments

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rolo-storage/rolo"
)

// This file is the experiment runner's concurrency layer. The model has
// three tiers, each with a distinct sharing discipline (see DESIGN §10):
//
//   - RunAll launches every experiment on its own goroutine with a private
//     output buffer, then streams the buffers in registry order, so the
//     bytes written to w never depend on scheduling or on the job count.
//   - runPar fans a batch of independent closures (usually one per
//     leaf simulation, see runLeaves) across goroutines. Results
//     travel back over a channel; the closures write only to distinct
//     indices of caller-owned slices, published to the caller by the
//     channel synchronization.
//   - acquire bounds the number of simulations actually executing at once
//     to the pool attached by Pool. Slots are held only across one
//     leaf simulation, which waits on nothing else — so slot-holders can
//     never deadlock against each other or against coordination
//     goroutines, which hold no slots while they wait.
//
// Simulations share no mutable state: each rolo.Run builds a private
// engine, array, telemetry recorder and sanitizer. The one cross-
// experiment structure, the pool's leaf memo, is mutex-guarded and
// deduplicates in-flight computation (leafMemo).

// Pool returns a copy of o with a pool of n simulation slots attached
// (n <= 0 selects Jobs, and failing that GOMAXPROCS). Experiments started
// with the returned options — including concurrently, under RunAll —
// share the pool, so at most n simulations are in flight at any moment,
// and share its leaf memo, so each distinct leaf simulates once. Options
// without a pool run every simulation on the calling goroutine.
func (o Options) Pool(n int) Options {
	if n <= 0 {
		n = o.Jobs
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	o.Jobs = n
	o.sem = make(chan struct{}, n)
	o.memo = &leafMemo{}
	return o
}

// leafMemo holds one entry per distinct leaf run under a pool. The first
// caller of a leaf simulates it; callers of an equal leaf, from the same
// experiment or another, wait on the entry's once while holding no slot.
// The once also publishes the report to every waiter, so only the map
// needs the lock.
type leafMemo struct {
	mu sync.Mutex
	//rolosan:guardedby mu
	entries map[leaf]*leafEntry
}

// leafEntry is one memoized leaf simulation.
type leafEntry struct {
	once sync.Once
	rep  rolo.Report
	err  error
}

// entry returns the memo cell for l, creating it on first request.
func (m *leafMemo) entry(l leaf) *leafEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = map[leaf]*leafEntry{}
	}
	e := m.entries[l]
	if e == nil {
		e = &leafEntry{}
		m.entries[l] = e
	}
	return e
}

// acquire claims one pool slot, blocking while n simulations are already
// running, and returns the release function, which adds the time the
// slot was held to o.held. Without a pool it is a no-op. Callers hold a
// slot only for the duration of one leaf simulation:
//
//	defer o.acquire()()
func (o Options) acquire() func() {
	if o.sem == nil {
		return func() {}
	}
	o.sem <- struct{}{}
	if o.stats != nil {
		o.stats.enter()
	}
	start := time.Now() //lint:allow simdeterminism:wall-clock wall-clock runtime of the harness itself, not simulated time
	return func() {
		if o.held != nil {
			o.held.Add(int64(time.Since(start))) //lint:allow simdeterminism:wall-clock pairs with the wall-clock timer above
		}
		if o.stats != nil {
			o.stats.exit()
		}
		<-o.sem
	}
}

// slotStats observes pool occupancy. Attached (by tests) via the stats
// field, it records the high-water mark of simulations simultaneously
// holding a slot — the oversubscription regression check: every layer
// above the pool, including a fleet experiment's shards, must draw from
// the one shared semaphore, so the mark can never exceed the slot count.
type slotStats struct {
	mu    sync.Mutex
	cur   int   //rolosan:guardedby mu
	max   int   //rolosan:guardedby mu
	total int64 //rolosan:guardedby mu
}

func (s *slotStats) enter() {
	s.mu.Lock()
	s.cur++
	s.total++
	if s.cur > s.max {
		s.max = s.cur
	}
	s.mu.Unlock()
}

func (s *slotStats) exit() {
	s.mu.Lock()
	s.cur--
	s.mu.Unlock()
}

// Max returns the occupancy high-water mark.
func (s *slotStats) Max() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

// Total returns how many slot acquisitions the pool has served.
func (s *slotStats) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// indexedErr carries one runPar result back to the coordinator.
type indexedErr struct {
	i   int
	err error
}

// runPar runs fn(0) … fn(n-1) and returns the error of the lowest failing
// index — the same error a serial loop would have returned first, so
// failures are deterministic under any job count. With a pool attached
// the calls run on n goroutines (throttled at the simulation leaves by
// acquire); without one they run serially on the calling goroutine.
//
// fn must confine its writes to caller-owned state indexed by i (distinct
// cells of a results slice); runPar's channel synchronization publishes
// those writes to the caller before it returns.
func runPar(o Options, n int, fn func(int) error) error {
	if o.sem == nil || n <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	results := make(chan indexedErr)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results <- indexedErr{i, fn(i)}
		}(i)
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	firstIdx, firstErr := -1, error(nil)
	for r := range results {
		if r.err != nil && (firstIdx < 0 || r.i < firstIdx) {
			firstIdx, firstErr = r.i, r.err
		}
	}
	return firstErr
}

// separator divides experiment outputs in RunAll, exactly as the serial
// runner printed it.
const separator = "\n========================================================================\n\n"

// RunAll runs every experiment in list concurrently — each into a private
// buffer, with simulations throttled by the option pool — and writes the
// buffers to w in list order, separated as the serial runner separated
// them. The bytes written to w are therefore identical for every job
// count, including the serial (no-pool) runner.
//
// It returns, in list order, the time each experiment's leaf simulations
// held pool slots, fleet shards included: where the sweep's CPU went.
// Waits for a slot do not count, so at one job the times sum to at most
// the sweep's wall time. A leaf that several experiments share counts
// for the one that simulated it.
//
// The first error in list order stops the streaming: outputs of the
// experiments before the failing one are still written, matching the
// serial runner's behaviour.
func RunAll(o Options, w io.Writer, list []Experiment) ([]time.Duration, error) {
	if o.sem == nil {
		o = o.Pool(0)
	}
	bufs := make([]bytes.Buffer, len(list))
	errs := make([]error, len(list))
	held := make([]atomic.Int64, len(list))
	err := runPar(o, len(list), func(i int) error {
		oi := o
		oi.held = &held[i]
		// Errors surface below, in list order with partial output.
		errs[i] = list[i].Run(oi, &bufs[i])
		return nil
	})
	times := make([]time.Duration, len(list))
	for i := range held {
		times[i] = time.Duration(held[i].Load())
	}
	if err != nil {
		return times, err
	}
	for i := range list {
		if i > 0 {
			if _, werr := io.WriteString(w, separator); werr != nil {
				return times, werr
			}
		}
		if _, werr := w.Write(bufs[i].Bytes()); werr != nil {
			return times, werr
		}
		if errs[i] != nil {
			return times, fmt.Errorf("%s: %w", list[i].ID, errs[i])
		}
	}
	return times, nil
}
