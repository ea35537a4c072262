package sim

import (
	"math/rand"
	"testing"
)

// Core benchmarks: the engine's steady-state hot paths. scripts/check.sh
// runs them once per commit (bench-smoke) so they cannot bit-rot, and
// `make bench` records them in BENCH_core.json for the perf trajectory.
// Every path benchmarked here must report 0 allocs/op (DESIGN §11).

// warmEngine returns an engine whose queue has been through a burst larger
// than the benchmark working set, so steady-state runs reuse its backing
// array instead of growing it.
func warmEngine(n int) *Engine {
	e := New()
	fn := Handler(func(Time) {})
	for i := 0; i < n; i++ {
		e.After(Time(i), fn)
	}
	e.Run()
	return e
}

// BenchmarkCoreEngineScheduleFire measures one After+Step round trip
// against an otherwise empty queue: the floor cost of an event.
func BenchmarkCoreEngineScheduleFire(b *testing.B) {
	e := warmEngine(64)
	fn := Handler(func(Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(10, fn)
		e.Step()
	}
}

// BenchmarkCoreEngineChurn holds a standing population of 1024 pending
// events — a realistic heap depth for full-scale simulations — and
// schedules one plus fires one per iteration, so sift costs reflect a
// deep 4-ary heap rather than an empty one.
func BenchmarkCoreEngineChurn(b *testing.B) {
	const standing = 1024
	e := warmEngine(standing * 2)
	fn := Handler(func(Time) {})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < standing; i++ {
		e.After(Time(rng.Intn(1_000_000)), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Time(rng.Intn(1_000_000)), fn)
		e.Step()
	}
	b.StopTimer()
	for e.Step() {
	}
}
