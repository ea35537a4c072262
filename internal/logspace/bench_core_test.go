package logspace

import "testing"

// BenchmarkCoreLogspaceCheck measures one sanitizer sweep over a
// fragmented log region of ~3000 spans, with the holes of a released tag
// in the free set. "7tags" spreads them over 7 tags, so the merge has 8
// runs. "20pairs" is RoLo-P-shaped: a logger region holding extents for
// each of the paper's 20 pairs, so 21 runs. Checked runs call
// CheckInvariants on every log region that changed since the previous
// sweep, so it must not allocate once warm.
func BenchmarkCoreLogspaceCheck(b *testing.B) {
	for _, c := range []struct {
		name string
		tags int
	}{{"7tags", 7}, {"20pairs", 20}} {
		b.Run(c.name, func(b *testing.B) {
			s := fragmented(b, 3000, c.tags)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.CheckInvariants(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLogspaceCheckSortScan runs the sort-and-scan reference over the
// same space, as the yardstick for BenchmarkCoreLogspaceCheck.
func BenchmarkLogspaceCheckSortScan(b *testing.B) {
	s := fragmented(b, 3000, 7)
	var ref sortScan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ref.check(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreLogspaceReset resets a log region, as a failed logger's
// reset and the end of a RoLo-E destage do, so Reset must not allocate.
// The region starts fragmented: ~1.5k extents of one tag interleave with
// ~1.5k free holes. Reset refills [0, capacity), so from the second
// iteration on it clears a whole region: ns/op is the steady cost.
func BenchmarkCoreLogspaceReset(b *testing.B) {
	s := fragmented(b, 3000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
	}
}
