package fleet

import (
	"runtime"
	"sync"

	"github.com/rolo-storage/rolo"
)

// This file is the fleet runner: shards execute concurrently on a worker
// pool, but their reports are folded strictly in shard-index order
// through a bounded reorder window, so the cluster report — and the
// error a failing fleet returns — is identical at every job count.
//
// The memory discipline is the point (DESIGN §16): a fleet of thousands
// of shards never materializes thousands of reports. At most
// 2·pool.Cap() reports exist at once — the in-flight simulations plus
// the reorder window — and the Cluster accumulator folds each one away
// as soon as its index comes up.

// Pool bounds how many shard simulations run at once. It is an
// interface, not a struct, so the experiments runner can hand the fleet
// its own slot semaphore: under `roloexp -run all` a fleet experiment
// and the other experiments' leaf simulations then draw from one shared
// budget instead of multiplying pools (no pool-in-pool oversubscription).
type Pool interface {
	// Acquire claims one slot, blocking while the pool is full, and
	// returns the release function.
	Acquire() func()
	// Cap is the slot count.
	Cap() int
}

// NewPool returns a standalone pool of n slots (n <= 0 selects
// GOMAXPROCS).
func NewPool(n int) Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &semPool{sem: make(chan struct{}, n)}
}

type semPool struct {
	sem chan struct{}
}

func (p *semPool) Acquire() func() {
	p.sem <- struct{}{}
	return func() { <-p.sem }
}

func (p *semPool) Cap() int { return cap(p.sem) }

// Run simulates every shard of the fleet and returns the merged cluster
// report. A nil or single-slot pool runs the shards serially on the
// calling goroutine, each holding the slot if there is one; otherwise
// shards run concurrently, throttled by the pool. Either way the reports
// fold in shard-index order, so the returned report is byte-for-byte
// identical across job counts, and a failing fleet returns the lowest
// failing shard's error — exactly what the serial loop would have hit
// first.
func Run(spec Spec, pool Pool) (ClusterReport, error) {
	if err := spec.Validate(); err != nil {
		return ClusterReport{}, err
	}
	c := NewCluster(spec.WorstK)
	if pool == nil || pool.Cap() <= 1 || spec.Shards == 1 {
		for i := 0; i < spec.Shards; i++ {
			release := func() {}
			if pool != nil {
				release = pool.Acquire()
			}
			rep, err := spec.RunShard(i)
			release()
			if err != nil {
				return ClusterReport{}, err
			}
			c.Fold(i, &rep)
		}
		return c.Report(), nil
	}
	if err := runWindowed(spec.Shards, pool, spec.RunShard, c.Fold); err != nil {
		return ClusterReport{}, err
	}
	return c.Report(), nil
}

// shardResult carries one finished shard back to the folder.
type shardResult struct {
	shard int
	rep   rolo.Report
	err   error
}

// runWindowed is the concurrent runner. Token accounting keeps it
// deadlock-free and constant-memory:
//
//   - gate starts with `window` tokens. The dispatcher takes one per
//     shard before launching its worker; the folder returns one per
//     report folded. Dispatch order is shard order and folds are
//     in-order, so every in-flight shard index lies within
//     [next, next+window) — the reorder ring can never collide.
//   - results is buffered to `window`. At most `window` shards are
//     dispatched-but-unfolded (each holds a gate token), so worker sends
//     never block and every worker goroutine provably terminates, even
//     after an abort.
//   - on a shard error the folder records it, closes stop (which parks
//     the dispatcher) and drains results without folding; the error that
//     surfaces is the one at the fold cursor — the lowest failing index.
func runWindowed(shards int, pool Pool, run func(int) (rolo.Report, error), fold func(int, *rolo.Report)) error {
	window := 2 * pool.Cap()
	if window > shards {
		window = shards
	}

	gate := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		gate <- struct{}{}
	}
	stop := make(chan struct{})
	results := make(chan shardResult, window)
	launched := make(chan struct{})
	var wg sync.WaitGroup

	// launch starts shard i's worker. The send into results never
	// blocks: the worker's gate token guarantees a buffer slot.
	launch := func(shard int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release := pool.Acquire()
			rep, err := run(shard)
			release()
			results <- shardResult{shard: shard, rep: rep, err: err}
		}()
	}
	// Dispatcher: launches workers in shard order, one gate token each.
	go func() {
		defer close(launched)
		for i := 0; i < shards; i++ {
			select {
			case <-gate:
			case <-stop:
				return
			}
			launch(i)
		}
	}()
	// Closer: ends the folder's range loop once every launched worker
	// has delivered.
	go func() {
		<-launched
		wg.Wait()
		close(results)
	}()

	// Folder (caller goroutine): reorder ring + in-order fold.
	pending := make([]shardResult, window)
	have := make([]bool, window)
	next := 0
	var firstErr error
	for r := range results {
		if firstErr != nil {
			continue // draining after abort
		}
		slot := r.shard % window
		pending[slot], have[slot] = r, true
		for next < shards && have[next%window] {
			cur := pending[next%window]
			have[next%window] = false
			pending[next%window] = shardResult{} // drop the report's buffers
			if cur.err != nil {
				firstErr = cur.err
				close(stop)
				break
			}
			fold(cur.shard, &cur.rep)
			next++
			gate <- struct{}{} // never blocks: ≤ window tokens exist
		}
	}
	return firstErr
}
