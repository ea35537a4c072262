// Package intervals provides a coalescing set of half-open byte ranges.
// Controllers use it to track inconsistent (dirty) extents per mirrored
// pair and to chunk destaging work.
//
// All mutators work in place on the set's backing array (see DESIGN §11):
// Add and Remove shift spans with memmove-style copies instead of
// rebuilding the slice, and a whole-span PopFirst advances a head offset,
// so steady-state mutation performs no allocations once the backing array
// has reached the set's high-water span count.
package intervals

import "fmt"

// Span is a half-open range [Start, End).
type Span struct {
	Start, End int64
}

// Len returns the span length.
func (s Span) Len() int64 { return s.End - s.Start }

// Set is a sorted, coalesced collection of non-overlapping spans. The zero
// value is an empty set ready for use.
type Set struct {
	// spans[head:] are the live spans. PopFirst advances head instead of
	// shifting the tail down; grow moves the live spans back to the front
	// before the backing array would be reallocated.
	spans []Span
	head  int
	total int64 // cached sum of span lengths, maintained by every mutator
}

// firstAfter returns the index of the first span in sp whose End exceeds
// x, or len(sp). The halving loop has no data-dependent branch: its
// conditional add compiles to a conditional move, so random probes do not
// mispredict.
func firstAfter(sp []Span, x int64) int {
	n := len(sp)
	if n == 0 {
		return 0
	}
	base := 0
	for n > 1 {
		half := n >> 1
		if sp[base+half].End <= x {
			base += half
		}
		n -= half
	}
	if sp[base].End <= x {
		base++
	}
	return base
}

// grow appends one slot to the live spans and returns them. When the
// backing array is full but PopFirst has left slack in front of the head,
// the live spans move down into it first, so that capacity is never
// stranded behind the head and the array grows only when it is full of
// live spans.
func (s *Set) grow() []Span {
	if len(s.spans) == cap(s.spans) && s.head > 0 {
		n := copy(s.spans, s.spans[s.head:])
		s.spans = s.spans[:n]
		s.head = 0
	}
	s.spans = append(s.spans, Span{})
	return s.spans[s.head:]
}

// Add inserts [start, end), merging with any overlapping or adjacent spans.
// Empty or inverted ranges are ignored.
func (s *Set) Add(start, end int64) {
	if end <= start {
		return
	}
	sp := s.spans[s.head:]
	n := len(sp)
	// Tail fast paths, taken before any search: the range lies past the
	// last span, or it touches the last span and nothing before it.
	if n == 0 || start > sp[n-1].End {
		sp = s.grow()
		sp[n] = Span{Start: start, End: end}
		s.total += end - start
		return
	}
	if last := &sp[n-1]; end >= last.Start && (n == 1 || start > sp[n-2].End) {
		old := last.Len()
		last.Start, last.End = min(last.Start, start), max(last.End, end)
		s.total += last.Len() - old
		return
	}
	// i is the first span ending at or after start, the first one the
	// range can touch: firstAfter finds the first ending after start, and
	// coalesced spans leave at most one that ends exactly at start.
	i := firstAfter(sp, start)
	if i > 0 && sp[i-1].End == start {
		i--
	}
	j := i
	var absorbed int64
	for j < n && sp[j].Start <= end {
		absorbed += sp[j].Len()
		start = min(start, sp[j].Start)
		end = max(end, sp[j].End)
		j++
	}
	merged := Span{Start: start, End: end}
	s.total += merged.Len() - absorbed
	if i == j {
		// Pure insertion: open a hole at i.
		sp = s.grow()
		copy(sp[i+1:], sp[i:n])
		sp[i] = merged
		return
	}
	// spans[i:j] collapse into one; close the leftover hole in place.
	sp[i] = merged
	if j > i+1 {
		m := copy(sp[i+1:], sp[j:])
		s.spans = s.spans[:s.head+i+1+m]
	}
}

// Remove deletes [start, end) from the set, splitting spans as needed. When
// the range does not overlap the set it returns without touching anything.
func (s *Set) Remove(start, end int64) {
	sp := s.spans[s.head:]
	if end <= start || len(sp) == 0 {
		return
	}
	i := firstAfter(sp, start)
	if i == len(sp) || sp[i].Start >= end {
		return // no overlap
	}
	j := i
	for j < len(sp) && sp[j].Start < end {
		lo, hi := max(sp[j].Start, start), min(sp[j].End, end)
		s.total -= hi - lo
		j++
	}
	// spans[i:j] overlap the removed range; at most the first leaves a left
	// remainder and the last a right remainder.
	var rem [2]Span
	keep := 0
	if first := sp[i]; first.Start < start {
		rem[keep] = Span{Start: first.Start, End: start}
		keep++
	}
	if last := sp[j-1]; last.End > end {
		rem[keep] = Span{Start: end, End: last.End}
		keep++
	}
	switch delta := keep - (j - i); {
	case delta < 0:
		copy(sp[i+keep:], sp[j:])
		s.spans = s.spans[:len(s.spans)+delta]
	case delta > 0:
		// A removal strictly inside one span splits it: grow by one and
		// shift the suffix up.
		n := len(sp)
		sp = s.grow()
		copy(sp[j+1:], sp[j:n])
	}
	for k := 0; k < keep; k++ {
		sp[i+k] = rem[k]
	}
}

// Contains reports whether [start, end) is fully covered by the set.
func (s *Set) Contains(start, end int64) bool {
	if end <= start {
		return true
	}
	sp := s.spans[s.head:]
	i := firstAfter(sp, start)
	return i < len(sp) && sp[i].Start <= start && sp[i].End >= end
}

// Overlaps reports whether any byte of [start, end) is in the set.
func (s *Set) Overlaps(start, end int64) bool {
	if end <= start {
		return false
	}
	sp := s.spans[s.head:]
	i := firstAfter(sp, start)
	return i < len(sp) && sp[i].Start < end
}

// FirstAfter returns the index of the first span that ends after x, or
// Count() if there is none: the first span a scan that starts at x must
// consider.
func (s *Set) FirstAfter(x int64) int { return firstAfter(s.spans[s.head:], x) }

// Total returns the number of bytes covered. It is O(1): controllers and
// the sanitizer read it on hot paths (per-event dirty-byte counters).
func (s *Set) Total() int64 { return s.total }

// Empty reports whether the set covers nothing.
func (s *Set) Empty() bool { return s.head == len(s.spans) }

// Count returns the number of disjoint spans.
func (s *Set) Count() int { return len(s.spans) - s.head }

// At returns the i-th span in ascending order, 0 <= i < Count(). Together
// with Count it lets hot paths iterate without the copy Spans() makes.
func (s *Set) At(i int) Span { return s.spans[s.head+i] }

// Spans returns a copy of the coalesced spans in ascending order. Hot paths
// should iterate with Count/At instead.
func (s *Set) Spans() []Span {
	out := make([]Span, s.Count())
	copy(out, s.spans[s.head:])
	return out
}

// Clear removes all spans.
func (s *Set) Clear() {
	s.spans = s.spans[:0]
	s.head = 0
	s.total = 0
}

// PopFirst removes and returns up to max bytes from the lowest span,
// which is how destagers chunk sequential work. It reports false when the
// set is empty. A whole-span pop is O(1): it advances the head, and the
// slack it leaves is reused by grow.
func (s *Set) PopFirst(max int64) (Span, bool) {
	if s.Empty() || max <= 0 {
		return Span{}, false
	}
	sp := &s.spans[s.head]
	if n := sp.Len(); n <= max {
		taken := *sp
		s.total -= n
		if s.head++; s.head == len(s.spans) {
			s.Clear()
		}
		return taken, true
	}
	taken := Span{Start: sp.Start, End: sp.Start + max}
	sp.Start = taken.End
	s.total -= max
	return taken, true
}

// CheckInvariants verifies internal ordering and coalescing; it is used by
// property tests.
func (s *Set) CheckInvariants() error {
	if s.head < 0 || s.head > len(s.spans) {
		return fmt.Errorf("intervals: head %d outside [0, %d]", s.head, len(s.spans))
	}
	var sum int64
	live := s.spans[s.head:]
	for i, sp := range live {
		if sp.End <= sp.Start {
			return fmt.Errorf("intervals: span %d degenerate: %+v", i, sp)
		}
		if i > 0 && live[i-1].End >= sp.Start {
			return fmt.Errorf("intervals: spans %d,%d not coalesced: %+v %+v",
				i-1, i, live[i-1], sp)
		}
		sum += sp.Len()
	}
	if sum != s.total {
		return fmt.Errorf("intervals: cached total %d != span sum %d", s.total, sum)
	}
	return nil
}
