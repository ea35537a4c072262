package fleet

import (
	"sync"
	"testing"
	"time"

	"github.com/rolo-storage/rolo"
)

// countingPool wraps a Pool and records slot-occupancy statistics.
type countingPool struct {
	inner Pool
	mu    sync.Mutex
	cur   int // guarded by mu
	max   int // guarded by mu
}

func (p *countingPool) Acquire() func() {
	release := p.inner.Acquire()
	p.mu.Lock()
	p.cur++
	if p.cur > p.max {
		p.max = p.cur
	}
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		p.cur--
		p.mu.Unlock()
		release()
	}
}

func (p *countingPool) Cap() int { return p.inner.Cap() }

func (p *countingPool) Max() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.max
}

// TestRunWindowedBoundedByPool pins the throttle: shard workers run
// concurrently but never hold more slots than the pool has, and with
// work long enough to overlap they do saturate the pool — the runner is
// genuinely parallel, not serial with extra goroutines. Stub shards
// sleep rather than simulate so the overlap is observable even on a
// single-CPU machine.
func TestRunWindowedBoundedByPool(t *testing.T) {
	const shards, slots = 24, 2
	pool := &countingPool{inner: NewPool(slots)}
	folded := 0
	err := runWindowed(shards, pool,
		func(i int) (rolo.Report, error) {
			time.Sleep(5 * time.Millisecond)
			return rolo.Report{}, nil
		},
		func(int, *rolo.Report) { folded++ })
	if err != nil {
		t.Fatal(err)
	}
	if folded != shards {
		t.Fatalf("folded %d shards, want %d", folded, shards)
	}
	if got := pool.Max(); got > slots {
		t.Fatalf("%d workers held slots at once, pool has %d", got, slots)
	}
	if got := pool.Max(); got < slots {
		t.Fatalf("peak slot occupancy %d never reached the pool size %d", got, slots)
	}
}
