package logspace

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/rolo-storage/rolo/internal/intervals"
)

// sortScan is a reference for Space.CheckInvariants: it gathers every
// live span, sorts them by start and scans for overlaps, reusing its
// buffers across calls. The differential test holds the merge-based check
// to its verdicts and the benchmarks compare the two on one space.
type sortScan struct {
	all  []refSpan
	tags []int
}

// refSpan attributes a span to its owner: an allocation tag or freeTag.
type refSpan struct {
	sp  intervals.Span
	tag int
}

func (c *sortScan) check(s *Space) error {
	all := c.all[:0]
	if err := s.free.CheckInvariants(); err != nil {
		return err
	}
	for i := 0; i < s.free.Count(); i++ {
		sp := s.free.At(i)
		if sp.Start < 0 || sp.End > s.capacity {
			return fmt.Errorf("logspace: free span %+v out of bounds", sp)
		}
		all = append(all, refSpan{sp, freeTag})
	}
	tags := c.tags[:0]
	for tag := range s.used {
		tags = append(tags, tag)
	}
	slices.Sort(tags)
	c.tags = tags[:0]
	var usedTotal int64
	for _, tag := range tags {
		set := s.used[tag]
		if err := set.CheckInvariants(); err != nil {
			return fmt.Errorf("logspace: tag %d: %w", tag, err)
		}
		for i := 0; i < set.Count(); i++ {
			sp := set.At(i)
			if sp.Start < 0 || sp.End > s.capacity {
				return fmt.Errorf("logspace: tag %d span %+v out of bounds", tag, sp)
			}
			all = append(all, refSpan{sp, tag})
			usedTotal += sp.Len()
		}
	}
	c.all = all[:0]
	slices.SortFunc(all, func(a, b refSpan) int {
		switch {
		case a.sp.Start < b.sp.Start:
			return -1
		case a.sp.Start > b.sp.Start:
			return 1
		}
		return 0
	})
	var total int64
	for i, o := range all {
		if i > 0 && o.sp.Start < all[i-1].sp.End {
			return spanError(o.tag, o.sp, "overlaps")
		}
		total += o.sp.Len()
	}
	if usedTotal != s.usedBy {
		return fmt.Errorf("logspace: used accounting %d != tracked %d", usedTotal, s.usedBy)
	}
	if total != s.capacity {
		return fmt.Errorf("logspace: accounted %d of %d bytes", total, s.capacity)
	}
	return nil
}

// fragmented returns a space holding n chunks allocated round-robin over
// tags+1 tags, with the last tag released: every chunk is a span of its
// own, and the released chunks leave one-chunk holes in the free set.
func fragmented(tb testing.TB, n, tags int) *Space {
	tb.Helper()
	const chunk = 4096
	s, err := New(int64(n+n/4) * chunk)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, ok := s.Alloc(chunk, i%(tags+1)); !ok {
			tb.Fatalf("alloc %d failed", i)
		}
	}
	s.ReleaseTag(tags)
	if err := s.CheckInvariants(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// randomTagSpan picks a span of a random live tag.
func randomTagSpan(s *Space, rng *rand.Rand) (int, intervals.Span, bool) {
	tags := s.Tags()
	if len(tags) == 0 {
		return 0, intervals.Span{}, false
	}
	tag := tags[rng.Intn(len(tags))]
	set := s.used[tag]
	return tag, set.At(rng.Intn(set.Count())), true
}

// corruptions each break one bookkeeping rule CheckInvariants enforces;
// family is a substring of the error it must then report. apply reports
// false when the space lacks what the corruption needs.
var corruptions = []struct {
	name, family string
	apply        func(s *Space, rng *rand.Rand) bool
}{
	{"free overlaps tag", "overlaps", func(s *Space, rng *rand.Rand) bool {
		_, sp, ok := randomTagSpan(s, rng)
		if ok {
			s.free.Add(sp.Start, sp.End)
		}
		return ok
	}},
	{"tag overlaps tag", "overlaps", func(s *Space, rng *rand.Rand) bool {
		tags := s.Tags()
		if len(tags) < 2 {
			return false
		}
		i := rng.Intn(len(tags))
		from, to := s.used[tags[i]], s.used[tags[(i+1)%len(tags)]]
		sp := from.At(rng.Intn(from.Count()))
		to.Add(sp.Start, sp.End)
		return true
	}},
	{"free span out of bounds", "out of bounds", func(s *Space, rng *rand.Rand) bool {
		if rng.Intn(2) == 0 {
			s.free.Add(-64, 0)
		} else {
			s.free.Add(s.capacity, s.capacity+64)
		}
		return true
	}},
	{"tag span out of bounds", "out of bounds", func(s *Space, rng *rand.Rand) bool {
		tag, _, ok := randomTagSpan(s, rng)
		if ok {
			if rng.Intn(2) == 0 {
				s.used[tag].Add(-64, 0)
			} else {
				s.used[tag].Add(s.capacity, s.capacity+64)
			}
		}
		return ok
	}},
	{"byte neither free nor used", "accounted", func(s *Space, rng *rand.Rand) bool {
		if s.free.Count() > 0 {
			sp := s.free.At(rng.Intn(s.free.Count()))
			s.free.Remove(sp.Start, sp.Start+1)
			return true
		}
		tag, sp, ok := randomTagSpan(s, rng)
		if ok {
			s.used[tag].Remove(sp.Start, sp.Start+1)
			s.usedBy--
		}
		return ok
	}},
	{"usedBy drift", "used accounting", func(s *Space, rng *rand.Rand) bool {
		s.usedBy += 1 + rng.Int63n(4096)
		return true
	}},
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	for i, c := range corruptions {
		t.Run(strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
			s := fragmented(t, 64, 3)
			if !c.apply(s, rand.New(rand.NewSource(int64(i)))) {
				t.Fatal("corruption did not apply")
			}
			err := s.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), c.family) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, c.family)
			}
		})
	}
}

// Differential property: after random allocator traffic and at most one
// corruption, CheckInvariants and the sort-and-scan reference agree on
// whether the space is consistent, and a corruption is always caught.
func TestCheckInvariantsMatchesSortScan(t *testing.T) {
	var ref sortScan
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := mustSpace(t, 1<<16)
		for i, steps := 0, rng.Intn(200); i < steps; i++ {
			switch op := rng.Intn(15); {
			case op < 9:
				s.Alloc(rng.Int63n(2048)+1, rng.Intn(8))
			case op < 14:
				s.ReleaseTag(rng.Intn(8))
			default:
				s.Reset()
			}
		}
		corrupted := ""
		if c := corruptions[rng.Intn(len(corruptions))]; rng.Intn(3) > 0 && c.apply(s, rng) {
			corrupted = c.family
		}
		got, want := s.CheckInvariants(), ref.check(s)
		if (got == nil) != (want == nil) {
			t.Fatalf("seed %d: CheckInvariants = %v, sort-and-scan = %v", seed, got, want)
		}
		if corrupted != "" && (got == nil || !strings.Contains(got.Error(), corrupted)) {
			t.Fatalf("seed %d: CheckInvariants = %v, want an error containing %q", seed, got, corrupted)
		}
		if corrupted == "" && got != nil {
			t.Fatalf("seed %d: clean space rejected: %v", seed, got)
		}
	}
}

// TestCheckInvariantsAcrossRunCounts drives the merge's loser tree at every
// tree size from 2 to 42 runs, balanced or not: each fragmented space must
// pass clean and then fail with the family of each corruption applied to it.
func TestCheckInvariantsAcrossRunCounts(t *testing.T) {
	for tags := 1; tags <= 41; tags++ {
		for i, c := range corruptions {
			s := fragmented(t, 300, tags)
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%d tags: clean space rejected: %v", tags, err)
			}
			if !c.apply(s, rand.New(rand.NewSource(int64(tags*100+i)))) {
				continue
			}
			if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.family) {
				t.Fatalf("%d tags, %s: CheckInvariants = %v, want an error containing %q", tags, c.name, err, c.family)
			}
		}
	}
}
