package intervals

import "testing"

// Core benchmarks: the in-place Set mutators controllers hit per write
// (MarkDirty/CleanDirty) and per destage chunk (PopFirst). scripts/check.sh
// runs them once per commit (bench-smoke) and `make bench` records them in
// BENCH_core.json. All of them must report 0 allocs/op once the backing
// array is at its high-water span count (DESIGN §11).

// warmSet returns a set whose backing array has held n disjoint spans.
func warmSet(n int64) *Set {
	var s Set
	for i := int64(0); i < n; i++ {
		s.Add(i*20, i*20+10)
	}
	s.Clear()
	return &s
}

// BenchmarkCoreIntervalsAddRemove cycles the mutation patterns a dirty-set
// sees per logged write: insert, extend, merge, split, and the no-overlap
// Remove early-return. Each iteration returns the set to empty.
func BenchmarkCoreIntervalsAddRemove(b *testing.B) {
	s := warmSet(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(100, 200)    // insert
		s.Add(400, 500)    // second span
		s.Add(150, 250)    // extend the first
		s.Add(250, 400)    // merge both
		s.Remove(600, 700) // no overlap: early return
		s.Remove(220, 280) // split one span into two
		s.Remove(0, 1000)  // drop everything
	}
}

// BenchmarkCoreIntervalsPopFirst measures destage chunking: refill one
// span, then drain it in fixed-size chunks through partial and whole-span
// pops.
func BenchmarkCoreIntervalsPopFirst(b *testing.B) {
	s := warmSet(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(0, 1024)
		for {
			if _, ok := s.PopFirst(256); !ok {
				break
			}
		}
	}
}
