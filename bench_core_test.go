package rolo

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
)

// BenchmarkCoreReplay is the end-to-end row of the hot-path suite: one
// Run per scheme over a fixed small synthetic trace (4 pairs, 2 minutes
// at 100 IOPS, half writes), so the replay loop — arrival series, scheme
// controller, pooled request joins, disks — is timed as a whole. Per-run
// setup (array, controller, logging spaces) is included in each op; with
// the request path allocation-free it is most of allocs/op.
func BenchmarkCoreReplay(b *testing.B) {
	for _, s := range Schemes {
		cfg := smallConfig(s)
		recs := writeHeavy(b, cfg, 100, 2*sim.Minute, 0.5)
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := Run(cfg, recs)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Requests != int64(len(recs)) {
					b.Fatalf("%d of %d requests completed", rep.Requests, len(recs))
				}
			}
		})
	}
}
