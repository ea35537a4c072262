package trace

import "testing"

// Core benchmark: trace materialization as replay_read's setup does it,
// hm_1 and rsrch_2 generated back to back (at scale 0.02 here, 0.5 there).
// Generate presizes its one record slice, so B/op is the two traces'
// records plus a fixed few KiB, and allocs/op is constant. Gated by
// scripts/check.sh bench-smoke and recorded in BENCH_core.json by
// `make bench`.
func BenchmarkCoreTraceGenerate(b *testing.B) {
	var syns []Synthetic
	for _, p := range []Profile{Hm_1, Rsrch_2} {
		syn, err := p.Synthetic(0.02)
		if err != nil {
			b.Fatal(err)
		}
		syns = append(syns, syn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, syn := range syns {
			if _, err := syn.Generate(testVolume); err != nil {
				b.Fatal(err)
			}
		}
	}
}
