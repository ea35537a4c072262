// Package logspace manages the logging region of a disk: sequential append
// allocation for logged writes, and tag-based invalidation so that when the
// destaging of a mirrored pair completes, every stale log extent written on
// behalf of that pair — on any logger — can be reclaimed at once.
//
// This implements Section III-E of the RoLo paper: the logger region is
// tracked as used and unused region lists; reclaimed regions coalesce back
// into the unused list so the logger is ready for its next on-duty term.
package logspace

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/rolo-storage/rolo/internal/intervals"
)

// Alloc is one allocated extent within the logging region.
type Alloc struct {
	Offset int64
	Length int64
}

// Space is the allocator for one disk's logging region. Offsets are
// relative to the start of the region; callers translate them to LBAs.
type Space struct {
	addrSpace int64 // immutable size of the region's address range
	free      intervals.Set
	donated   intervals.Set          // extents permanently given to the data region
	used      map[int]*intervals.Set // tag -> extents
	// idle is the emptied set of the last released tag, chunks and all,
	// kept for the next new tag. One set, not a list: a space off duty
	// sees releases but no new tags, and a list would hold every
	// released tag's chunks.
	idle   *intervals.Set
	usedBy int64
	// cursor is the append head: allocation is next-fit from here with
	// wrap-around, so consecutive log writes stay sequential on disk even
	// after reclamation has opened holes behind the head (the region
	// behaves as the circular log of Section III-A).
	cursor int64

	// gen is the mutation generation Generation reports.
	gen uint64

	// tagCache holds used[tag] for take in slot tag mod tagSlots, so that an
	// allocation usually skips the map lookup. A nil set marks an empty
	// slot; ReleaseTag and Reset clear the slots they invalidate.
	tagCache [tagSlots]tagSlot

	// runs and tree are CheckInvariants' merge scratch, one cursor and one
	// tree node per set, kept across the sanitizer's sweeps so that they
	// do not allocate (DESIGN §11).
	runs []run
	tree []node
}

// run walks one sorted, coalesced set during CheckInvariants' merge: the
// donated set (tag donatedTag), the free set (tag freeTag) or one tag's
// extents. It caches its current span, the one the merge takes next.
type run struct {
	cur intervals.Span
	set *intervals.Set
	it  intervals.Cursor
	tag int
}

// node is one entry of CheckInvariants' loser tree: a run's index and the
// start of its current span (math.MaxInt64 once the run is exhausted), so
// that matches compare starts without indexing back into the runs.
type node struct {
	start int64
	run   int
}

// tagSlots is the size of take's tag cache. Log writes interleave tags:
// RoLo-P/R/E tag each extent with its pair, so a one-entry cache misses
// most allocations, while 32 slots hold every pair of the paper's 20-pair
// array. GRAID allocates under one generation tag at a time.
const tagSlots = 32

// tagSlot is one entry of take's tag cache.
type tagSlot struct {
	tag int
	set *intervals.Set
}

// Run tags of the two sets that belong to no allocation tag; allocation
// tags are non-negative.
const (
	donatedTag = -2
	freeTag    = -1
)

// New returns a Space over a region of the given size.
func New(capacity int64) (*Space, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("logspace: non-positive capacity %d", capacity)
	}
	s := &Space{addrSpace: capacity, used: make(map[int]*intervals.Set)}
	s.free.Add(0, capacity)
	return s, nil
}

// Capacity returns the logging capacity in bytes (the region size minus any
// space donated to the data region).
func (s *Space) Capacity() int64 { return s.addrSpace - s.donated.Total() }

// FreeBytes returns the number of unallocated bytes.
func (s *Space) FreeBytes() int64 { return s.Capacity() - s.usedBy }

// UsedBytes returns the number of allocated bytes.
func (s *Space) UsedBytes() int64 { return s.usedBy }

// FreeFraction returns FreeBytes/Capacity.
func (s *Space) FreeFraction() float64 {
	if c := s.Capacity(); c > 0 {
		return float64(s.FreeBytes()) / float64(c)
	}
	return 0
}

// Generation returns the space's mutation generation. Every call that
// changes the allocation state advances it: a successful Alloc, ReleaseTag
// of a live tag, Reset and a successful Shrink. Nothing else does, so an
// unchanged generation means unchanged free, donated and per-tag extents.
// RoloSan's sweep relies on that to skip a space it has already verified
// (DESIGN §9).
func (s *Space) Generation() uint64 { return s.gen }

// LargestFree returns the size of the largest contiguous free extent.
func (s *Space) LargestFree() int64 {
	var largest int64
	it := s.free.Cursor()
	for sp, ok := it.Next(); ok; sp, ok = it.Next() {
		largest = max(largest, sp.Len())
	}
	return largest
}

// Alloc reserves n contiguous bytes tagged with tag, next-fit from the
// append cursor with wrap-around. Consecutive allocations are therefore
// address-sequential whenever space permits, which is what makes on-duty
// logging seek-free. It reports false when no free extent is large enough.
func (s *Space) Alloc(n int64, tag int) (Alloc, bool) {
	if n <= 0 {
		return Alloc{}, false
	}
	// First pass: at or after the cursor (a true append when the cursor
	// sits inside a free span), starting at the first free span that ends
	// past it. take is only called once a span is chosen: it changes the
	// free set, which ends the walk.
	it := s.free.CursorAfter(s.cursor)
	for sp, ok := it.Next(); ok; sp, ok = it.Next() {
		start := max(sp.Start, s.cursor)
		if sp.End-start >= n {
			return s.take(start, n, tag), true
		}
	}
	// Wrap around: restart from the lowest free extent that fits.
	it = s.free.Cursor()
	for sp, ok := it.Next(); ok; sp, ok = it.Next() {
		if sp.Len() >= n {
			return s.take(sp.Start, n, tag), true
		}
	}
	return Alloc{}, false
}

func (s *Space) take(start, n int64, tag int) Alloc {
	s.gen++
	s.free.Remove(start, start+n)
	slot := &s.tagCache[uint(tag)%tagSlots]
	if slot.set == nil || slot.tag != tag {
		set, ok := s.used[tag]
		if !ok {
			set = s.idle
			if set == nil {
				set = new(intervals.Set)
			}
			s.idle = nil
			s.used[tag] = set
		}
		*slot = tagSlot{tag: tag, set: set}
	}
	slot.set.Add(start, start+n)
	s.usedBy += n
	s.cursor = start + n
	return Alloc{Offset: start, Length: n}
}

// ReleaseTag invalidates every extent allocated under tag and returns the
// number of bytes reclaimed. This is the proactive reclamation step that
// follows a completed destage. The tag's emptied set waits for the next
// new tag, in place of any set released before it.
func (s *Space) ReleaseTag(tag int) int64 {
	set, ok := s.used[tag]
	if !ok {
		return 0
	}
	s.gen++
	var freed int64
	it := set.Cursor()
	for sp, ok := it.Next(); ok; sp, ok = it.Next() {
		s.free.Add(sp.Start, sp.End)
		freed += sp.Len()
	}
	delete(s.used, tag)
	set.Clear()
	s.idle = set
	if slot := &s.tagCache[uint(tag)%tagSlots]; slot.tag == tag {
		slot.set = nil
	}
	s.usedBy -= freed
	return freed
}

// TagBytes returns the bytes currently allocated under tag.
func (s *Space) TagBytes(tag int) int64 {
	set, ok := s.used[tag]
	if !ok {
		return 0
	}
	return set.Total()
}

// Tags returns the tags with live allocations, in ascending order so
// callers iterate deterministically.
func (s *Space) Tags() []int {
	out := make([]int, 0, len(s.used))
	for t := range s.used {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// Reset releases all allocations, returning every non-donated byte to the
// free list: the free set becomes [0, addrSpace) minus the donated set.
func (s *Space) Reset() {
	s.gen++
	s.free.Clear()
	var from int64
	it := s.donated.Cursor()
	for sp, ok := it.Next(); ok; sp, ok = it.Next() {
		s.free.Add(from, sp.Start)
		from = sp.End
	}
	s.free.Add(from, s.addrSpace)
	clear(s.used)
	s.tagCache = [tagSlots]tagSlot{}
	s.usedBy = 0
	s.cursor = 0
}

// Shrink permanently donates n free bytes to the data region (the paper's
// data-region expansion: an unused logger region is freed from the unused
// region list when the data region fills). It reports false if less than n
// bytes are free. No controller calls it yet: every simulated logging
// region keeps its full size for the whole run.
func (s *Space) Shrink(n int64) bool {
	if n <= 0 || n > s.FreeBytes() {
		return false
	}
	s.gen++
	remaining := n
	spans := s.free.Spans()
	for i := len(spans) - 1; i >= 0 && remaining > 0; i-- {
		sp := spans[i]
		take := sp.Len()
		if take > remaining {
			take = remaining
		}
		s.free.Remove(sp.End-take, sp.End)
		s.donated.Add(sp.End-take, sp.End)
		remaining -= take
	}
	return true
}

// CheckInvariants validates the allocator's bookkeeping: the free, donated
// and per-tag extents lie within bounds, are pairwise disjoint and together
// tile the whole region, and the tags account for every used byte.
func (s *Space) CheckInvariants() error {
	runs := append(s.runs[:0], run{set: &s.donated, tag: donatedTag}, run{set: &s.free, tag: freeTag})
	for tag, set := range s.used {
		runs = append(runs, run{set: set, tag: tag})
	}
	s.runs = runs[:0]
	slices.SortFunc(runs, func(a, b run) int { return cmp.Compare(a.tag, b.tag) })
	live := runs[:0]
	var usedTotal int64
	spans := 0
	for _, r := range runs {
		if err := r.set.CheckInvariants(); err != nil {
			if r.tag < 0 {
				return fmt.Errorf("logspace: %s set: %w", owner(r.tag), err)
			}
			return fmt.Errorf("logspace: tag %d: %w", r.tag, err)
		}
		if r.tag >= 0 {
			usedTotal += r.set.Total()
		}
		r.it = r.set.Cursor()
		if sp, ok := r.it.Next(); ok {
			r.cur = sp
			live = append(live, r)
			spans += r.set.Count()
		}
	}
	// Every set is sorted and coalesced, so their union is disjoint iff a
	// k-way merge by start never meets a span that begins before its
	// predecessor ends: O(n log k) over n spans and k sets, with no copy
	// of the spans. prevEnd starts at 0, which no in-bounds span precedes.
	tree := s.loserTree(live)
	var total, prevEnd int64
	for ; spans > 0; spans-- {
		w := tree[0].run
		r := &live[w]
		sp := r.cur
		if sp.Start < 0 || sp.End > s.addrSpace {
			return spanError(r.tag, sp, "out of bounds")
		}
		if sp.Start < prevEnd {
			return spanError(r.tag, sp, "overlaps")
		}
		prevEnd = sp.End
		total += sp.Len()
		next := node{start: math.MaxInt64, run: w}
		if sp, ok := r.it.Next(); ok {
			r.cur = sp
			next.start = sp.Start
		}
		replay(tree, next)
	}
	if usedTotal != s.usedBy {
		return fmt.Errorf("logspace: used accounting %d != tracked %d", usedTotal, s.usedBy)
	}
	// Disjoint and in bounds, the spans tile [0, addrSpace) exactly when
	// they cover all of it.
	if total != s.addrSpace {
		return fmt.Errorf("logspace: accounted %d of %d bytes", total, s.addrSpace)
	}
	return nil
}

// loserTree builds the merge's tournament over the current spans of
// live's k runs, in s.tree: run i is leaf k+i of a heap-shaped tree whose
// node j has children 2j and 2j+1, each inner node 1..k-1 holds the loser
// (the later start) of the match between its two subtrees' winners, and
// node 0 holds the overall winner. Every inner node keeps the first entry
// that reaches it and plays the second, so each leaf's insertion climbs
// until it meets an empty node or passes the root.
func (s *Space) loserTree(live []run) []node {
	k := len(live)
	tree := slices.Grow(s.tree[:0], k)[:k]
	s.tree = tree
	for j := 1; j < k; j++ {
		tree[j].run = -1
	}
	for i := range live {
		x := node{start: live[i].cur.Start, run: i}
		j := (k + i) / 2
		for ; j > 0; j /= 2 {
			if tree[j].run < 0 {
				tree[j] = x
				break
			}
			if tree[j].start < x.start {
				tree[j], x = x, tree[j]
			}
		}
		if j == 0 {
			tree[0] = x
		}
	}
	return tree
}

// replay carries x, the winner's run with its next start, from that run's
// leaf to the root: at each node the earlier start moves on and the later
// one stays as the node's loser. That is one comparison per level, where a
// binary heap's sift-down makes two.
func replay(tree []node, x node) {
	for j := (len(tree) + x.run) / 2; j > 0; j /= 2 {
		if tree[j].start < x.start {
			tree[j], x = x, tree[j]
		}
	}
	tree[0] = x
}

// spanError reports a span that breaks a rule, naming its owner.
func spanError(tag int, sp intervals.Span, what string) error {
	if tag < 0 {
		return fmt.Errorf("logspace: %s span %+v %s", owner(tag), sp, what)
	}
	return fmt.Errorf("logspace: tag %d span %+v %s", tag, sp, what)
}

// owner names the set behind a negative run tag.
func owner(tag int) string {
	if tag == donatedTag {
		return "donated"
	}
	return "free"
}
