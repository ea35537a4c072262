package logspace

import "testing"

// BenchmarkCoreLogspaceCheck measures one sanitizer sweep over a
// fragmented log region of ~3000 spans, with the holes of a released tag
// in the free set. "7tags" spreads them over 7 tags, so the merge has 8
// runs. "20pairs" is RoLo-P-shaped: a logger region holding extents for
// each of the paper's 20 pairs, plus a donated tail, so 22 runs. Checked
// runs call CheckInvariants on every log region that changed since the
// previous sweep, so it must not allocate once warm.
func BenchmarkCoreLogspaceCheck(b *testing.B) {
	for _, c := range []struct {
		name   string
		tags   int
		donate bool
	}{{"7tags", 7, false}, {"20pairs", 20, true}} {
		b.Run(c.name, func(b *testing.B) {
			s := fragmented(b, 3000, c.tags)
			if c.donate && !s.Shrink(s.FreeBytes()/4) {
				b.Fatal("shrink failed")
			}
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

// BenchmarkCoreLogspaceReset resets a region fragmented by ~1.5k donated
// extents, which interleave with ~1.5k free ones: Reset rebuilds the free
// set as the region minus the donated set, so this is its worst case. A
// rotation resets the outgoing logger's region, so Reset must not
// allocate.
func BenchmarkCoreLogspaceReset(b *testing.B) {
	const chunk = 4096
	const n = 3000
	s, err := New((n + n/4) * chunk)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, ok := s.Alloc(chunk, i%2); !ok {
			b.Fatalf("alloc %d failed", i)
		}
	}
	s.ReleaseTag(1)
	if !s.Shrink(s.FreeBytes()) {
		b.Fatal("shrink failed")
	}
	s.Reset()
	if err := s.CheckInvariants(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
	}
}
