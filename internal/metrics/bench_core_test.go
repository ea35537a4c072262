package metrics

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
)

// Core benchmark: the per-request-completion metrics path. Every completed
// request calls ResponseStats.AddClass, one log-bucketed histogram
// observation in its class, which also keeps the count, sum and exact
// max; once the histogram's bucket array has grown to cover the largest
// observed latency it must be 0 allocs/op
// (DESIGN §11). Gated by scripts/check.sh bench-smoke and recorded in
// BENCH_core.json by `make bench`.
func BenchmarkCoreHistogramAdd(b *testing.B) {
	var r ResponseStats
	// Warm the bucket arrays past the latencies observed below.
	r.AddClass(10*sim.Second, true)
	r.AddClass(10*sim.Second, false)
	rts := [...]sim.Time{
		3 * sim.Millisecond, 420 * sim.Microsecond, 97 * sim.Millisecond,
		12 * sim.Millisecond, 1 * sim.Second, 250 * sim.Microsecond,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.AddClass(rts[i%len(rts)], i%2 == 0)
	}
}
