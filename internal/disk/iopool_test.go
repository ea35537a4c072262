package disk

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
)

// TestIOPoolRecyclesCompletedRequests pins the pool contract: a pooled IO
// comes back to the free list after its completion callback has run, and
// the recycled struct is fully reset (a stale submitted flag would make
// every reuse fail with errDoubleSubmit).
func TestIOPoolRecyclesCompletedRequests(t *testing.T) {
	d, eng := newTestDisk(t)
	var pool IOPool
	done := 0
	for i := 0; i < 3; i++ {
		io := pool.Get()
		io.LBA = int64(i * 1000)
		io.Sectors = 8
		io.Write = true
		io.OnDone = func(sim.Time) { done++ }
		if err := d.Submit(io); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		eng.Run()
	}
	if done != 3 {
		t.Fatalf("completions = %d, want 3", done)
	}
	if pool.Free() != 1 {
		t.Fatalf("free list holds %d IOs, want 1 (single struct recycled through 3 requests)", pool.Free())
	}
	io := pool.Get()
	if io.submitted || io.OnDone != nil || io.Sectors != 0 {
		t.Fatalf("recycled IO not reset: %+v", io)
	}
}

// TestIOPoolRecyclesDroppedRequests covers the failure drop path: queued
// requests dropped by Fail fire OnDone and return to the pool.
func TestIOPoolRecyclesDroppedRequests(t *testing.T) {
	d, eng := newTestDisk(t)
	var pool IOPool
	dropped := 0
	for i := 0; i < 4; i++ {
		io := pool.Get()
		io.LBA = int64(i * 64)
		io.Sectors = 8
		io.OnDone = func(sim.Time) { dropped++ }
		if err := d.Submit(io); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// One request dispatches immediately; the other three sit queued and
	// are dropped (with their callbacks) when the drive fails.
	d.Fail()
	if dropped != 3 {
		t.Fatalf("dropped callbacks = %d, want 3", dropped)
	}
	if pool.Free() != 3 {
		t.Fatalf("free list holds %d IOs after drop, want 3", pool.Free())
	}
	eng.Run()
}

// TestRecycleUnsubmitted pins Recycle: a pooled-but-unsubmitted IO can be
// returned by the controller (failed-target skip path), and Recycle on a
// queued IO is a no-op rather than a pool corruption.
func TestRecycleUnsubmitted(t *testing.T) {
	d, _ := newTestDisk(t)
	var pool IOPool
	io := pool.Get()
	io.Sectors = 8
	io.Recycle()
	if pool.Free() != 1 {
		t.Fatalf("free = %d after recycling unsubmitted IO, want 1", pool.Free())
	}
	io = pool.Get()
	io.Sectors = 8
	if err := d.Submit(io); err != nil {
		t.Fatalf("submit: %v", err)
	}
	io.Recycle() // submitted: must be ignored
	if pool.Free() != 0 {
		t.Fatalf("free = %d after recycling a submitted IO, want 0", pool.Free())
	}
}

// TestIOSubmitZeroAlloc is the satellite's AllocsPerRun pin: once the pool
// and the engine queue are warm, a submit→service→complete round trip
// allocates nothing — the last per-request heap allocation named by the
// ROADMAP perf guideline is gone.
func TestIOSubmitZeroAlloc(t *testing.T) {
	eng := sim.New()
	d, err := New(0, Ultrastar36Z15(), eng)
	if err != nil {
		t.Fatal(err)
	}
	var pool IOPool
	lba := int64(0)
	round := func() {
		io := pool.Get()
		io.LBA = lba % 1_000_000
		io.Sectors = 128
		io.Write = true
		lba += 937
		if err := d.Submit(io); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	round() // warm the pool and the event queue
	if n := testing.AllocsPerRun(200, round); n > 0 {
		t.Fatalf("pooled submit/complete allocates %v per run, want 0", n)
	}
}

// BenchmarkCoreDiskIO measures the pooled request round trip (submit,
// mechanical service, completion, recycle) — the per-request hot path
// every controller rides. Must stay 0 allocs/op.
func BenchmarkCoreDiskIO(b *testing.B) {
	eng := sim.New()
	d, err := New(0, Ultrastar36Z15(), eng)
	if err != nil {
		b.Fatal(err)
	}
	var pool IOPool
	lba := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		io := pool.Get()
		io.LBA = lba % 1_000_000
		io.Sectors = 128
		io.Write = true
		lba += 937
		if err := d.Submit(io); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}
