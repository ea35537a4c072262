package intervals

import (
	"math/rand"
	"testing"
)

// Core benchmarks: the in-place Set mutators controllers hit per write
// (MarkDirty/CleanDirty) and per destage chunk (PopFirst). scripts/check.sh
// runs them once per commit (bench-smoke) and `make bench` records them in
// BENCH_core.json. All of them must report 0 allocs/op once the set has
// held its high-water chunk count (DESIGN §11).

// warmSet returns an empty set that has held n disjoint spans.
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

// BenchmarkCoreIntervalsMarkDirty marks a random 64 KiB extent and cleans
// another per op, in a dirty set held near a given span count: 1.5k, the
// size of a busy pair's set under replay_write, and 30k, the peak of
// RoLo-P's largest set on proj_0 at paper scale (31,428 spans). A mark is
// a search plus an insert that shifts the spans above it in its chunk.
func BenchmarkCoreIntervalsMarkDirty(b *testing.B) {
	for _, c := range []struct {
		name         string
		slots, picks int // half dirty at random: about slots/4 spans
	}{
		{"1.5k", 6000, 1 << 12},
		{"30k", 120000, 1 << 17},
	} {
		b.Run(c.name, func(b *testing.B) {
			const extent = 64 << 10
			rng := rand.New(rand.NewSource(1))
			picks := make([]int64, c.picks)
			for i := range picks {
				picks[i] = rng.Int63n(int64(c.slots)) * extent
			}
			var s Set
			for i := 0; i < 4*c.slots; i++ {
				s.Add(picks[i%len(picks)], picks[i%len(picks)]+extent)
				at := picks[(i*7+3)%len(picks)]
				s.Remove(at, at+extent)
			}
			if want := c.slots / 4; s.Count() < want*2/3 {
				b.Fatalf("set holds %d spans, want about %d", s.Count(), want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := picks[i%len(picks)]
				s.Add(at, at+extent)
				at = picks[(i*7+3)%len(picks)]
				s.Remove(at, at+extent)
			}
		})
	}
}

// BenchmarkCoreIntervalsDrain drains a 3k-span set in 256 KiB destage
// chunks while appending, as a live destager does while writes keep
// dirtying its pair: per op, one 512 KiB span leaves in two pops (a
// partial and a whole-span one) and one is appended past the highest.
func BenchmarkCoreIntervalsDrain(b *testing.B) {
	const (
		spans = 3000
		span  = 512 << 10
		chunk = 256 << 10
		pitch = span + 64<<10
	)
	var s Set
	next := int64(0)
	for ; next < spans; next++ {
		s.Add(next*pitch, next*pitch+span)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PopFirst(chunk)
		s.PopFirst(chunk)
		s.Add(next*pitch, next*pitch+span)
		next++
	}
}
