package logspace

import "testing"

// BenchmarkCoreLogspaceCheck measures one sanitizer sweep over a
// fragmented log region: ~3000 spans over 7 tags, with the holes of a
// released tag in the free set. Checked runs call CheckInvariants on every
// log region at every sweep, so it must not allocate once warm.
func BenchmarkCoreLogspaceCheck(b *testing.B) {
	s := fragmented(b, 3000, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
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
