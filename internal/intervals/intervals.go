// Package intervals provides a coalescing set of half-open byte ranges.
// Controllers use it to track inconsistent (dirty) extents per mirrored
// pair and to chunk destaging work.
//
// A set keeps its spans in sorted chunks of at most chunkSpans spans,
// under an index of each chunk's last End (see DESIGN §11). Add and
// Remove search the index, then shift spans inside one chunk, so an
// insert moves at most chunkSpans spans however large the set; a
// whole-span PopFirst advances the first chunk's head; and chunks that
// empty are kept for reuse, so steady-state mutation performs no
// allocations once the set has held its high-water chunk count.
package intervals

import (
	"fmt"
	"math"
)

// Span is a half-open range [Start, End).
type Span struct {
	Start, End int64
}

// Len returns the span length.
func (s Span) Len() int64 { return s.End - s.Start }

// chunkSpans is the most spans one chunk holds. An insert shifts at most
// this many spans, and the index holds one entry per chunk. Marking dirt
// at 1.5k and 30k spans read fastest at 128 among 32, 64, 128 and 256
// (DESIGN §11).
const chunkSpans = 128

// firstSpans is the capacity of a set's first chunk. A set that outgrows
// it goes straight to a full-size chunk: doubling through the sizes in
// between left garbage in six allocation size classes, and raised
// replay_write's peak RSS by about 1.5 MB (DESIGN §11).
const firstSpans = 8

// Set is a sorted, coalesced collection of non-overlapping spans. The zero
// value is an empty set ready for use.
type Set struct {
	// first[head:] and rest hold the spans in ascending order:
	// first[head:] is chunk 0 and rest[k-1] is chunk k. A chunk holds at
	// most chunkSpans spans and none is empty. A set that fits in one
	// chunk is a flat sorted slice in first, in an array of firstSpans or
	// chunkSpans. first lives in the Set itself, so a small set's mutators
	// and PopFirst reach its spans without going through the chunk list.
	//
	// first starts at its array's first slot. A whole-span PopFirst
	// advances head; the slack that leaves in front is reused by the next
	// insert into the chunk that finds no room at its end, and the chunk
	// is reused whole. An empty set keeps its last first chunk to restart
	// in.
	first []Span
	head  int
	rest  [][]Span
	// ends[k] is the End of chunk k's last span, one entry per chunk: the
	// index that Add, Remove and the queries search before searching one
	// chunk.
	ends []int64
	// spare holds emptied chunks, all full size, for the set to reuse.
	spare [][]Span
	count int
	total int64 // cached sum of span lengths, maintained by every mutator
}

// chunk returns chunk k.
func (s *Set) chunk(k int) []Span {
	if k == 0 {
		return s.first[s.head:]
	}
	return s.rest[k-1]
}

// setChunk sets chunk k to c, which is chunk k resliced in place: it
// starts where chunk k starts.
func (s *Set) setChunk(k int, c []Span) {
	if k == 0 {
		s.first = s.first[:s.head+len(c)]
	} else {
		s.rest[k-1] = c
	}
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

// chunkAfter returns the index of the first chunk whose last span ends
// after x, or len(ends): firstAfter's halving loop over the index.
func chunkAfter(ends []int64, x int64) int {
	n := len(ends)
	if n == 0 {
		return 0
	}
	base := 0
	for n > 1 {
		half := n >> 1
		if ends[base+half] <= x {
			base += half
		}
		n -= half
	}
	if ends[base] <= x {
		base++
	}
	return base
}

// Add inserts [start, end), merging with any overlapping or adjacent spans.
// Empty or inverted ranges are ignored.
func (s *Set) Add(start, end int64) {
	if end <= start {
		return
	}
	if s.count == 0 {
		if cap(s.first) == 0 {
			s.first = make([]Span, 0, firstSpans)
		}
		s.first = append(s.first, Span{Start: start, End: end})
		s.ends = append(s.ends, end)
		s.count, s.total = 1, end-start
		return
	}
	// Tail fast paths, taken before any search: the range lies past the
	// last span, or it touches the last span and nothing before it.
	nk := len(s.ends)
	c := s.chunk(nk - 1)
	n := len(c)
	if start > c[n-1].End {
		s.total += end - start
		if n < cap(c) {
			s.setChunk(nk-1, append(c, Span{Start: start, End: end}))
			s.ends[nk-1] = end
			s.count++
			return
		}
		s.insert(nk-1, n, Span{Start: start, End: end})
		return
	}
	if last := &c[n-1]; end >= last.Start {
		prevEnd := int64(math.MinInt64)
		if n > 1 {
			prevEnd = c[n-2].End
		} else if nk > 1 {
			prevEnd = s.ends[nk-2]
		}
		if start > prevEnd {
			old := last.Len()
			last.Start, last.End = min(last.Start, start), max(last.End, end)
			s.ends[nk-1] = last.End
			s.total += last.Len() - old
			return
		}
	}
	// (k, i) is the first span ending at or after start, the first one the
	// range can touch: the search finds the first span ending after start,
	// and coalesced spans leave at most one that ends exactly at start, the
	// one before it. The range lies before the last span's end here, so
	// the search finds a chunk.
	k := chunkAfter(s.ends, start)
	c = s.chunk(k)
	i := firstAfter(c, start)
	if i > 0 {
		if c[i-1].End == start {
			i--
		}
	} else if k > 0 && s.ends[k-1] == start {
		k--
		c = s.chunk(k)
		i = len(c) - 1
	}
	j := i
	var absorbed int64
	for j < len(c) && c[j].Start <= end {
		absorbed += c[j].Len()
		start = min(start, c[j].Start)
		end = max(end, c[j].End)
		j++
	}
	if j == len(c) && k+1 < nk && s.rest[k][0].Start <= end {
		s.addAcross(k, i, start, end)
		return
	}
	merged := Span{Start: start, End: end}
	s.total += merged.Len() - absorbed
	if i == j {
		s.insert(k, i, merged)
		return
	}
	// c[i:j] collapse into one; close the leftover hole in place.
	c[i] = merged
	if j > i+1 {
		m := copy(c[i+1:], c[j:])
		c = c[:i+1+m]
		s.setChunk(k, c)
		s.count -= j - i - 1
	}
	s.ends[k] = c[len(c)-1].End
}

// addAcross is Add's slow path: [start, end) absorbs chunk k's spans from
// i on and reaches into the chunks after it. The merged span replaces
// span i, the chunks it covers whole are dropped, and the spans it
// absorbs from the last chunk it reaches leave that chunk.
func (s *Set) addAcross(k, i int, start, end int64) {
	c := s.chunk(k)
	var absorbed int64
	for _, sp := range c[i:] {
		absorbed += sp.Len()
	}
	start = min(start, c[i].Start)
	kb, jb := k+1, 0
	for {
		cb := s.rest[kb-1]
		for jb < len(cb) && cb[jb].Start <= end {
			absorbed += cb[jb].Len()
			end = max(end, cb[jb].End)
			jb++
		}
		if jb < len(cb) || kb+1 == len(s.ends) || s.rest[kb][0].Start > end {
			break
		}
		kb, jb = kb+1, 0
	}
	c[i] = Span{Start: start, End: end}
	s.setChunk(k, c[:i+1])
	s.ends[k] = end
	s.total += end - start - absorbed
	s.count -= len(c) - i - 1
	s.trimFront(k+1, kb, jb)
}

// trimFront drops chunks lo..hi-1, and the first n spans of chunk hi,
// which follows them; it drops chunk hi too if that empties it. Chunk hi
// is never the first.
func (s *Set) trimFront(lo, hi, n int) {
	for k := lo; k < hi; k++ {
		s.count -= len(s.chunk(k))
	}
	c := s.rest[hi-1]
	s.count -= n
	if n == len(c) {
		s.dropChunks(lo, hi+1)
		return
	}
	s.rest[hi-1] = c[:copy(c, c[n:])]
	s.dropChunks(lo, hi)
}

// Remove deletes [start, end) from the set, splitting spans as needed. When
// the range does not overlap the set it returns without touching anything.
func (s *Set) Remove(start, end int64) {
	if end <= start {
		return
	}
	k := chunkAfter(s.ends, start)
	if k == len(s.ends) {
		return // no overlap, or an empty set
	}
	c := s.chunk(k)
	i := firstAfter(c, start)
	if c[i].Start >= end {
		return // no overlap
	}
	j := i
	var cut int64
	for j < len(c) && c[j].Start < end {
		cut += min(c[j].End, end) - max(c[j].Start, start)
		j++
	}
	if j == len(c) && k+1 < len(s.ends) && s.rest[k][0].Start < end {
		s.removeAcross(k, i, start, end)
		return
	}
	s.total -= cut
	// c[i:j] overlap the removed range; at most the first leaves a left
	// remainder and the last a right remainder.
	var rem [2]Span
	keep := 0
	if first := c[i]; first.Start < start {
		rem[keep] = Span{Start: first.Start, End: start}
		keep++
	}
	if last := c[j-1]; last.End > end {
		rem[keep] = Span{Start: end, End: last.End}
		keep++
	}
	switch delta := keep - (j - i); {
	case delta > 0:
		// A removal strictly inside one span splits it in two. The
		// chunk's last End stays.
		c[i] = rem[0]
		if len(c) == cap(c) {
			s.insert(k, i+1, rem[1])
			return
		}
		c = c[:len(c)+1]
		copy(c[i+2:], c[i+1:])
		c[i+1] = rem[1]
		s.setChunk(k, c)
		s.count++
		return
	case delta < 0:
		copy(c[i+keep:], c[j:])
		c = c[:len(c)+delta]
		s.count += delta
		if len(c) == 0 {
			s.dropChunks(k, k+1)
			return
		}
		s.setChunk(k, c)
	}
	for q := 0; q < keep; q++ {
		c[i+q] = rem[q]
	}
	s.ends[k] = c[len(c)-1].End
}

// removeAcross is Remove's slow path: [start, end) overlaps chunk k's
// spans from i on and reaches into the chunks after it. Chunk k keeps its
// spans before i and the left remainder, the chunks the range covers
// whole are dropped, and the last chunk it reaches loses the spans it
// overlaps but keeps the right remainder.
func (s *Set) removeAcross(k, i int, start, end int64) {
	c := s.chunk(k)
	var cut int64
	for _, sp := range c[i:] {
		cut += sp.End - max(sp.Start, start)
	}
	keep := c[:i]
	if first := c[i]; first.Start < start {
		keep = append(keep, Span{Start: first.Start, End: start})
	}
	s.count -= len(c) - len(keep)
	kb, jb := k+1, 0
	for {
		cb := s.rest[kb-1]
		for jb < len(cb) && cb[jb].Start < end {
			cut += min(cb[jb].End, end) - cb[jb].Start
			jb++
		}
		if jb < len(cb) || kb+1 == len(s.ends) || s.rest[kb][0].Start >= end {
			break
		}
		kb, jb = kb+1, 0
	}
	s.total -= cut
	// The right remainder takes the place of the last span the range
	// overlaps.
	cb := s.rest[kb-1]
	if last := &cb[jb-1]; last.End > end {
		last.Start = end
		jb--
	}
	s.setChunk(k, keep)
	lo := k + 1
	if len(keep) == 0 {
		lo = k
	} else {
		s.ends[k] = keep[len(keep)-1].End
	}
	s.trimFront(lo, kb, jb)
}

// insert puts sp at position i of chunk k, 0 <= i <= len(chunk k),
// making room first: the first chunk moves its spans down into the slack
// PopFirst left, a lone chunk below full size moves to a full-size one,
// and a full chunk splits in two, or starts a new chunk when sp goes past
// the set's end.
func (s *Set) insert(k, i int, sp Span) {
	c := s.chunk(k)
	if n := len(c); n == cap(c) {
		switch {
		case k == 0 && s.head > 0:
			s.first = s.first[:copy(s.first, c)]
			s.head = 0
			c = s.first
		case n < chunkSpans:
			s.first = append(make([]Span, 0, chunkSpans), c...)
			c = s.first
		case i == n && k == len(s.rest):
			s.ends[k] = c[n-1].End // Remove may have just cut the last span
			s.rest = append(s.rest, append(s.takeSpare(), sp))
			s.ends = append(s.ends, sp.End)
			s.count++
			return
		default:
			// Chunk k+1, the upper half, is rest[k].
			hi := append(s.takeSpare(), c[n/2:]...)
			c = c[:n/2]
			s.rest = append(s.rest, nil)
			copy(s.rest[k+1:], s.rest[k:])
			s.rest[k] = hi
			s.ends = append(s.ends, 0)
			copy(s.ends[k+2:], s.ends[k+1:])
			s.ends[k+1] = hi[len(hi)-1].End
			s.ends[k] = c[len(c)-1].End
			if i > n/2 {
				s.setChunk(k, c)
				k, i, c = k+1, i-n/2, hi
			}
		}
	}
	c = c[:len(c)+1]
	copy(c[i+1:], c[i:])
	c[i] = sp
	s.setChunk(k, c)
	s.ends[k] = c[len(c)-1].End
	s.count++
}

// takeSpare returns an empty full-size chunk: a spare one, or a new one.
func (s *Set) takeSpare() []Span {
	if n := len(s.spare); n > 0 {
		c := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return c
	}
	return make([]Span, 0, chunkSpans)
}

// dropChunks removes chunks lo..hi-1 from the set and keeps them spare,
// except that a set they empty keeps its first chunk to restart in. A set
// with more than one chunk holds only full-size chunks, so every spare is
// full size. The caller has already taken the chunks' spans out of the
// count and total.
func (s *Set) dropChunks(lo, hi int) {
	if lo == 0 && hi == len(s.ends) {
		for _, c := range s.rest {
			s.spare = append(s.spare, c[:0])
		}
		s.first, s.head, s.rest, s.ends = s.first[:0], 0, s.rest[:0], s.ends[:0]
		return
	}
	for k := lo; k < hi; k++ {
		c := s.first
		if k > 0 {
			c = s.rest[k-1]
		}
		s.spare = append(s.spare, c[:0])
	}
	if lo == 0 {
		// Chunk hi becomes the first.
		s.first, s.head = s.rest[hi-1], 0
		s.rest = s.rest[:copy(s.rest, s.rest[hi:])]
	} else {
		s.rest = s.rest[:lo-1+copy(s.rest[lo-1:], s.rest[hi-1:])]
	}
	s.ends = s.ends[:lo+copy(s.ends[lo:], s.ends[hi:])]
}

// Contains reports whether [start, end) is fully covered by the set.
func (s *Set) Contains(start, end int64) bool {
	if end <= start {
		return true
	}
	k := chunkAfter(s.ends, start)
	if k == len(s.ends) {
		return false
	}
	c := s.chunk(k)
	sp := c[firstAfter(c, start)]
	return sp.Start <= start && sp.End >= end
}

// Overlaps reports whether any byte of [start, end) is in the set.
func (s *Set) Overlaps(start, end int64) bool {
	if end <= start {
		return false
	}
	k := chunkAfter(s.ends, start)
	if k == len(s.ends) {
		return false
	}
	c := s.chunk(k)
	return c[firstAfter(c, start)].Start < end
}

// Total returns the number of bytes covered. It is O(1): controllers and
// the sanitizer read it on hot paths (per-event dirty-byte counters).
func (s *Set) Total() int64 { return s.total }

// Empty reports whether the set covers nothing.
func (s *Set) Empty() bool { return s.count == 0 }

// Count returns the number of disjoint spans.
func (s *Set) Count() int { return s.count }

// At returns the i-th span in ascending order, 0 <= i < Count(). It walks
// the chunks; iterate with a Cursor instead.
func (s *Set) At(i int) Span {
	j := i
	for k := range s.ends {
		if c := s.chunk(k); j < len(c) {
			return c[j]
		} else {
			j -= len(c)
		}
	}
	panic(fmt.Sprintf("intervals: At(%d) of %d spans", i, s.count))
}

// Spans returns a copy of the coalesced spans in ascending order. Hot paths
// should iterate with a Cursor instead.
func (s *Set) Spans() []Span {
	out := append(make([]Span, 0, s.count), s.first[s.head:]...)
	for _, c := range s.rest {
		out = append(out, c...)
	}
	return out
}

// Clear removes all spans. The set keeps its chunks for reuse.
func (s *Set) Clear() {
	if len(s.ends) > 0 {
		s.dropChunks(0, len(s.ends))
	}
	s.count = 0
	s.total = 0
}

// PopFirst removes and returns up to max bytes from the lowest span,
// which is how destagers chunk sequential work. It reports false when the
// set is empty. A whole-span pop is O(1): it advances the first chunk's
// head, and the slack it leaves is reused by the next insert into that
// chunk.
func (s *Set) PopFirst(max int64) (Span, bool) {
	if s.count == 0 || max <= 0 {
		return Span{}, false
	}
	sp := &s.first[s.head]
	if n := sp.Len(); n > max {
		taken := Span{Start: sp.Start, End: sp.Start + max}
		sp.Start = taken.End
		s.total -= max
		return taken, true
	}
	taken := *sp
	s.total -= taken.Len()
	s.count--
	if s.head++; s.head == len(s.first) {
		s.dropChunks(0, 1)
	}
	return taken, true
}

// Cursor walks a set's spans in ascending order. It is valid until the
// set is next modified.
type Cursor struct {
	cur  []Span   // the spans left in the current chunk
	next [][]Span // the chunks after it
}

// Cursor returns a cursor at the set's first span.
func (s *Set) Cursor() Cursor { return Cursor{cur: s.first[s.head:], next: s.rest} }

// CursorAfter returns a cursor at the first span that ends after x: the
// first span a scan that starts at x must consider.
func (s *Set) CursorAfter(x int64) Cursor {
	k := chunkAfter(s.ends, x)
	if k == len(s.ends) {
		return Cursor{}
	}
	c := s.chunk(k)
	return Cursor{cur: c[firstAfter(c, x):], next: s.rest[k:]}
}

// Next returns the span at the cursor and moves past it. It reports false
// once the spans are exhausted.
func (c *Cursor) Next() (Span, bool) {
	if len(c.cur) == 0 {
		if len(c.next) == 0 {
			return Span{}, false
		}
		c.cur, c.next = c.next[0], c.next[1:]
	}
	sp := c.cur[0]
	c.cur = c.cur[1:]
	return sp, true
}

// CheckInvariants verifies the ordering and coalescing of the spans and
// the chunk bookkeeping: the index has one entry per chunk, no chunk is
// empty or over chunkSpans, each index entry is its chunk's last End, the
// first chunk's head lies in its array, every chunk of a multi-chunk set
// and every spare is full size, and the cached count and total match the
// spans. Property tests and the log-space check use it.
func (s *Set) CheckInvariants() error {
	if s.head < 0 || s.head > len(s.first) {
		return fmt.Errorf("intervals: head %d outside [0, %d]", s.head, len(s.first))
	}
	chunks := 0
	if s.head < len(s.first) {
		chunks = 1 + len(s.rest)
	} else if len(s.rest) > 0 || s.head > 0 {
		return fmt.Errorf("intervals: empty first chunk (head %d) before %d more", s.head, len(s.rest))
	}
	if len(s.ends) != chunks {
		return fmt.Errorf("intervals: %d index entries for %d chunks", len(s.ends), chunks)
	}
	var sum int64
	count := 0
	var prev Span
	for k := range chunks {
		c := s.chunk(k)
		if len(c) == 0 || len(c) > chunkSpans {
			return fmt.Errorf("intervals: chunk %d holds %d spans, want 1..%d", k, len(c), chunkSpans)
		}
		if e := c[len(c)-1].End; s.ends[k] != e {
			return fmt.Errorf("intervals: index entry %d is %d, chunk ends at %d", k, s.ends[k], e)
		}
		// Only a lone chunk grows in place (insert), so every chunk of a
		// larger set is full size.
		array := c
		if k == 0 {
			array = s.first
		}
		if chunks > 1 && cap(array) != chunkSpans {
			return fmt.Errorf("intervals: chunk %d of %d has capacity %d, want %d", k, chunks, cap(array), chunkSpans)
		}
		for i, sp := range c {
			if sp.End <= sp.Start {
				return fmt.Errorf("intervals: span %d degenerate: %+v", count+i, sp)
			}
			if count+i > 0 && prev.End >= sp.Start {
				return fmt.Errorf("intervals: spans %d,%d not coalesced: %+v %+v",
					count+i-1, count+i, prev, sp)
			}
			sum += sp.Len()
			prev = sp
		}
		count += len(c)
	}
	if count != s.count {
		return fmt.Errorf("intervals: cached count %d != span count %d", s.count, count)
	}
	for _, c := range s.spare {
		if len(c) != 0 || cap(c) != chunkSpans {
			return fmt.Errorf("intervals: spare chunk holds %d of %d spans, want 0 of %d", len(c), cap(c), chunkSpans)
		}
	}
	if sum != s.total {
		return fmt.Errorf("intervals: cached total %d != span sum %d", s.total, sum)
	}
	return nil
}
