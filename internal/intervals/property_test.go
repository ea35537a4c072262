package intervals

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveSet is the reference implementation for the property tests: a plain
// coverage bitmap over a small universe. Every operation is written for
// obviousness, not speed. The bitmap extends past the generation range so
// ranges straddling the universe edge are still tracked exactly.
type naiveSet struct {
	covered []bool
	hi      int64  // no byte at or past hi has ever been covered
	buf     []Span // spans' result, reused
}

func newNaiveSet(size int) *naiveSet { return &naiveSet{covered: make([]bool, size)} }

func (n *naiveSet) add(start, end int64)    { n.set(start, end, true) }
func (n *naiveSet) remove(start, end int64) { n.set(start, end, false) }

func (n *naiveSet) set(start, end int64, v bool) {
	if end <= start {
		return
	}
	for i := n.clamp(start); i < n.clamp(end); i++ {
		n.covered[i] = v
	}
	if v {
		n.hi = max(n.hi, n.clamp(end))
	}
}

func (n *naiveSet) clamp(v int64) int64 { return min(max(v, 0), int64(len(n.covered))) }

func (n *naiveSet) total() int64 {
	var t int64
	for _, c := range n.covered[:n.hi] {
		if c {
			t++
		}
	}
	return t
}

func (n *naiveSet) contains(start, end int64) bool {
	if end <= start {
		return true
	}
	for i := start; i < end; i++ {
		if i < 0 || i >= int64(len(n.covered)) || !n.covered[i] {
			return false
		}
	}
	return true
}

func (n *naiveSet) overlaps(start, end int64) bool {
	for i := n.clamp(start); i < n.clamp(end); i++ {
		if n.covered[i] {
			return true
		}
	}
	return false
}

// spans reconstructs the coalesced span list from the bitmap. The result
// is valid until the next call.
func (n *naiveSet) spans() []Span {
	out := n.buf[:0]
	i := int64(0)
	for i < n.hi {
		if !n.covered[i] {
			i++
			continue
		}
		j := i
		for j < n.hi && n.covered[j] {
			j++
		}
		out = append(out, Span{Start: i, End: j})
		i = j
	}
	n.buf = out
	return out
}

// popFirst mirrors Set.PopFirst against the bitmap.
func (n *naiveSet) popFirst(max int64) (Span, bool) {
	sps := n.spans()
	if len(sps) == 0 || max <= 0 {
		return Span{}, false
	}
	sp := sps[0]
	if sp.Len() > max {
		sp.End = sp.Start + max
	}
	n.remove(sp.Start, sp.End)
	return sp, true
}

// agree fails the test unless s holds its invariants and matches ref span
// for span. It returns ref's spans.
func agree(t *testing.T, s *Set, ref *naiveSet, where string) []Span {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if got, want := s.Total(), ref.total(); got != want {
		t.Fatalf("%s: Total() = %d, want %d", where, got, want)
	}
	want := ref.spans()
	if s.Count() != len(want) {
		t.Fatalf("%s: %d spans %v, want %d spans %v", where, s.Count(), s.Spans(), len(want), want)
	}
	for i, w := range want {
		if got := s.At(i); got != w {
			t.Fatalf("%s: span %d = %+v, want %+v", where, i, got, w)
		}
	}
	return want
}

// TestSetMatchesNaiveReference fuzzes the in-place Set against the bitmap
// reference with a rapid add/remove/pop loop, checking CheckInvariants and
// full span-list agreement after every mutation. The large universe holds
// more than a thousand spans at once, so the searches run many halving
// steps and inserts shift long tails.
func TestSetMatchesNaiveReference(t *testing.T) {
	for _, u := range []struct {
		name           string
		universe       int // generated starts are in [0, universe+20)
		maxLen         int // generated lengths are in [0, maxLen)
		seeds, ops     int
		minPeakSpans   int
		addsPerRemoval int // of every 10 operations, this many are adds
	}{
		{"small", 512, 40, 40, 2000, 0, 4},
		{"large", 12288, 4, 1, 6000, 1000, 6},
	} {
		t.Run(u.name, func(t *testing.T) {
			peak := 0
			for seed := int64(0); seed < int64(u.seeds); seed++ {
				rng := rand.New(rand.NewSource(seed))
				var s Set
				ref := newNaiveSet(u.universe + 20 + u.maxLen)
				for op := 0; op < u.ops; op++ {
					start := int64(rng.Intn(u.universe + 20)) // occasionally out past the edge
					end := start + int64(rng.Intn(u.maxLen))
					where := fmt.Sprintf("seed %d op %d", seed, op)
					switch k := rng.Intn(10); {
					case k < u.addsPerRemoval:
						s.Add(start, end)
						ref.add(start, end)
					case k < 7:
						s.Remove(start, end)
						ref.remove(start, end)
					case k < 8:
						max := int64(rng.Intn(30))
						got, gotOK := s.PopFirst(max)
						want, wantOK := ref.popFirst(max)
						if gotOK != wantOK || got != want {
							t.Fatalf("%s: PopFirst(%d) = %+v,%v, want %+v,%v",
								where, max, got, gotOK, want, wantOK)
						}
					case k < 9:
						if got, want := s.Contains(start, end), ref.contains(start, end); got != want {
							t.Fatalf("%s: Contains(%d,%d) = %v, want %v", where, start, end, got, want)
						}
					default:
						if got, want := s.Overlaps(start, end), ref.overlaps(start, end); got != want {
							t.Fatalf("%s: Overlaps(%d,%d) = %v, want %v", where, start, end, got, want)
						}
					}
					want := agree(t, &s, ref, where)
					if got, want := s.FirstAfter(start), firstAfterRef(want, start); got != want {
						t.Fatalf("%s: FirstAfter(%d) = %d, want %d", where, start, got, want)
					}
					peak = max(peak, s.Count())
				}
			}
			t.Logf("peak of %d spans", peak)
			if peak < u.minPeakSpans {
				t.Fatalf("peak of %d spans, want at least %d", peak, u.minPeakSpans)
			}
		})
	}
}

// firstAfterRef is a linear scan for FirstAfter.
func firstAfterRef(sps []Span, x int64) int {
	for i, sp := range sps {
		if sp.End > x {
			return i
		}
	}
	return len(sps)
}

// TestSetDrainWhileMarking alternates marking phases with pop-heavy
// phases that keep adding at the tail, as a pair's live destager does
// while new writes dirty the pair: whole-span pops advance the head,
// tail adds fill the slack behind the live spans until the backing array
// is full and they move down into the front slack, and both tail fast
// paths run. Every operation is checked span for span against the bitmap
// reference; the test also asserts that each of those paths ran.
func TestSetDrainWhileMarking(t *testing.T) {
	const size = 1 << 14
	var headAdvances, compactions, tailAppends, tailMerges int
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		ref := newNaiveSet(size)
		tailStart := func() int64 {
			if s.Empty() {
				return int64(rng.Intn(64))
			}
			// Adjacent to, overlapping or just past the last span.
			return max(s.At(s.Count()-1).End+int64(rng.Intn(6))-3, 0)
		}
		for phase := 0; phase < 30; phase++ {
			pops := phase%2 == 1
			for op := 0; op < 120; op++ {
				where := fmt.Sprintf("seed %d phase %d op %d", seed, phase, op)
				head, capBefore, n := s.head, cap(s.spans), s.Count()
				var lastBefore, prevBefore Span
				if n > 0 {
					lastBefore = s.At(n - 1)
				}
				if n > 1 {
					prevBefore = s.At(n - 2)
				}
				var start, end int64
				switch k := rng.Intn(10); {
				case pops && k < 5:
					max := int64(rng.Intn(12) + 1)
					got, gotOK := s.PopFirst(max)
					want, wantOK := ref.popFirst(max)
					if gotOK != wantOK || got != want {
						t.Fatalf("%s: PopFirst(%d) = %+v,%v, want %+v,%v", where, max, got, gotOK, want, wantOK)
					}
					if s.head > head {
						headAdvances++
					}
					agree(t, &s, ref, where)
					continue
				case pops || k < 6:
					start = tailStart()
				default:
					start = int64(rng.Intn(size / 8))
				}
				end = min(start+int64(rng.Intn(6)+1), size)
				s.Add(start, end)
				ref.add(start, end)
				agree(t, &s, ref, where)
				switch {
				case n > 0 && start > lastBefore.End:
					tailAppends++
				case n > 0 && end >= lastBefore.Start && (n == 1 || start > prevBefore.End):
					tailMerges++
				}
				if head > 0 && s.head == 0 && cap(s.spans) == capBefore && !s.Empty() {
					compactions++
				}
			}
		}
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{"head advances", headAdvances},
		{"compactions into front slack", compactions},
		{"tail appends", tailAppends},
		{"tail merges", tailMerges},
	} {
		if c.n == 0 {
			t.Errorf("no %s ran", c.name)
		}
	}
}

// TestRemoveNoOverlapDoesNotMutate pins the early-return: removing a range
// that misses the set must leave the backing slice untouched.
func TestRemoveNoOverlapDoesNotMutate(t *testing.T) {
	var s Set
	s.Add(100, 200)
	s.Add(300, 400)
	for _, r := range [][2]int64{{0, 100}, {200, 300}, {400, 500}, {250, 260}, {50, 20}} {
		s.Remove(r[0], r[1])
	}
	if s.Count() != 2 || s.At(0) != (Span{100, 200}) || s.At(1) != (Span{300, 400}) {
		t.Fatalf("non-overlapping Remove mutated the set: %v", s.Spans())
	}
}

// TestSetSteadyStateZeroAllocs pins the 0 allocs/op contract for Add,
// Remove and PopFirst once the backing array has reached its high-water
// span count.
func TestSetSteadyStateZeroAllocs(t *testing.T) {
	var s Set
	// Warm the backing array to its high-water mark for the loop below.
	for i := int64(0); i < 32; i++ {
		s.Add(i*20, i*20+10)
	}
	s.Clear()

	if n := testing.AllocsPerRun(200, func() {
		s.Add(100, 200)     // insert
		s.Add(150, 250)     // extend
		s.Add(400, 500)     // second span
		s.Add(200, 400)     // merge both
		s.Remove(150, 450)  // split-free shrink from the middle
		s.Remove(0, 600)    // drop everything
		s.Add(0, 100)       //
		s.Remove(20, 30)    // split one span into two
		s.PopFirst(15)      // partial pop
		s.PopFirst(1 << 20) // whole-span pop
		s.PopFirst(1 << 20) // drain
		if !s.Empty() {
			t.Fatal("set not drained")
		}
	}); n != 0 {
		t.Errorf("steady-state Add/Remove/PopFirst: %v allocs/op, want 0", n)
	}

	// Drain while marking, as a pair's live destager does: pop the lowest
	// span and append one past the highest, holding 512 live spans in a
	// backing array warmed to 1024. The head keeps advancing, so the array
	// stays allocation-free only because grow moves the live spans down
	// into the slack the pops left. Without that, the cycle's 4096 appends
	// outgrow the array in every run, warm-up included.
	s.Clear()
	for i := int64(0); i < 1024; i++ {
		s.Add(i*20, i*20+10)
	}
	s.Clear()
	next := int64(0)
	for ; next < 512; next++ {
		s.Add(next*20, next*20+10)
	}
	if n := testing.AllocsPerRun(1, func() {
		for k := 0; k < 4096; k++ {
			s.PopFirst(1 << 20)
			s.Add(next*20, next*20+10)
			next++
		}
		if s.Count() != 512 {
			t.Fatalf("drain-while-marking holds %d spans, want 512", s.Count())
		}
	}); n != 0 {
		t.Errorf("drain-while-marking PopFirst/Add: %v allocs/op, want 0", n)
	}
}
