package logspace

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustSpace(t *testing.T, cap int64) *Space {
	t.Helper()
	s, err := New(cap)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadCapacity(t *testing.T) {
	for _, c := range []int64{0, -1} {
		if _, err := New(c); err == nil {
			t.Errorf("capacity %d accepted", c)
		}
	}
}

func TestAllocSequential(t *testing.T) {
	s := mustSpace(t, 1000)
	a1, ok := s.Alloc(100, 1)
	if !ok || a1.Offset != 0 {
		t.Fatalf("first alloc = %+v %v", a1, ok)
	}
	a2, ok := s.Alloc(200, 2)
	if !ok || a2.Offset != 100 {
		t.Fatalf("second alloc = %+v %v, want offset 100 (append order)", a2, ok)
	}
	if s.FreeBytes() != 700 || s.UsedBytes() != 300 {
		t.Fatalf("free/used = %d/%d", s.FreeBytes(), s.UsedBytes())
	}
}

func TestAllocExhaustion(t *testing.T) {
	s := mustSpace(t, 100)
	if _, ok := s.Alloc(100, 1); !ok {
		t.Fatal("full-capacity alloc failed")
	}
	if _, ok := s.Alloc(1, 2); ok {
		t.Fatal("alloc beyond capacity succeeded")
	}
	if _, ok := s.Alloc(0, 1); ok {
		t.Fatal("zero alloc succeeded")
	}
}

func TestReleaseTagReclaims(t *testing.T) {
	s := mustSpace(t, 1000)
	s.Alloc(100, 1)
	s.Alloc(100, 2)
	s.Alloc(100, 1)
	if got := s.TagBytes(1); got != 200 {
		t.Fatalf("TagBytes(1) = %d, want 200", got)
	}
	if freed := s.ReleaseTag(1); freed != 200 {
		t.Fatalf("ReleaseTag(1) = %d, want 200", freed)
	}
	if s.UsedBytes() != 100 {
		t.Fatalf("UsedBytes = %d, want 100", s.UsedBytes())
	}
	if freed := s.ReleaseTag(1); freed != 0 {
		t.Fatalf("second ReleaseTag(1) = %d, want 0", freed)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseTagKeepsSetForNextTag: a released tag's set, emptied but
// holding its chunks, becomes the next new tag's set.
func TestReleaseTagKeepsSetForNextTag(t *testing.T) {
	s := mustSpace(t, 1<<20)
	for i := 0; i < 300; i++ { // tag 2's extents keep tag 1's 300 apart
		s.Alloc(100, 1)
		s.Alloc(100, 2)
	}
	released := s.used[1]
	s.ReleaseTag(1)
	if _, ok := s.Alloc(100, 3); !ok {
		t.Fatal("alloc failed")
	}
	if s.used[3] != released {
		t.Fatal("the next new tag did not reuse the released tag's set")
	}
	if got := s.TagBytes(3); got != 100 {
		t.Fatalf("TagBytes(3) = %d, want 100", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocStaysSequentialAfterReclaim(t *testing.T) {
	// Reclaiming extents behind the append head must not pull subsequent
	// allocations backwards into the holes: the log is circular, so the
	// head keeps advancing until it wraps.
	s := mustSpace(t, 1000)
	s.Alloc(100, 1) // [0,100)
	s.Alloc(100, 2) // [100,200)
	s.ReleaseTag(1) // hole at [0,100) behind the head
	a, ok := s.Alloc(100, 3)
	if !ok || a.Offset != 200 {
		t.Fatalf("alloc after reclaim = %+v %v, want offset 200 (append, not hole)", a, ok)
	}
	// Fill to the end; the next allocation wraps into the hole.
	for off := int64(300); off < 1000; off += 100 {
		got, ok := s.Alloc(100, 4)
		if !ok || got.Offset != off {
			t.Fatalf("fill alloc = %+v %v, want offset %d", got, ok, off)
		}
	}
	a, ok = s.Alloc(100, 5)
	if !ok || a.Offset != 0 {
		t.Fatalf("wrap alloc = %+v %v, want offset 0", a, ok)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReclaimedSpaceReusable(t *testing.T) {
	s := mustSpace(t, 300)
	s.Alloc(100, 1)
	s.Alloc(100, 2)
	s.Alloc(100, 3)
	s.ReleaseTag(2)
	a, ok := s.Alloc(100, 4)
	if !ok || a.Offset != 100 {
		t.Fatalf("realloc into reclaimed hole = %+v %v", a, ok)
	}
}

func TestFragmentationBlocksLargeAlloc(t *testing.T) {
	s := mustSpace(t, 300)
	s.Alloc(100, 1)
	s.Alloc(100, 2)
	s.Alloc(100, 3)
	s.ReleaseTag(1)
	s.ReleaseTag(3)
	// 200 free but split into two 100-byte regions.
	if got := s.FreeBytes(); got != 200 {
		t.Fatalf("FreeBytes = %d", got)
	}
	if got := s.LargestFree(); got != 100 {
		t.Fatalf("LargestFree = %d, want 100", got)
	}
	if _, ok := s.Alloc(150, 9); ok {
		t.Fatal("allocated 150 contiguous from fragmented 100+100")
	}
	// Releasing the middle coalesces everything.
	s.ReleaseTag(2)
	if got := s.LargestFree(); got != 300 {
		t.Fatalf("LargestFree after coalesce = %d, want 300", got)
	}
}

func TestReset(t *testing.T) {
	s := mustSpace(t, 500)
	s.Alloc(400, 1)
	s.Reset()
	if s.FreeBytes() != 500 || len(s.Tags()) != 0 {
		t.Fatal("Reset incomplete")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTagCacheSlotsShared interleaves allocations under tags that share a
// slot of take's tag cache, then releases one of them: each tag must keep
// exactly its own extents.
func TestTagCacheSlotsShared(t *testing.T) {
	s := mustSpace(t, 1<<20)
	tags := []int{3, 3 + tagSlots, 3 + 2*tagSlots, 3 + 3*tagSlots}
	for i := 0; i < 40; i++ {
		if _, ok := s.Alloc(100, tags[i%len(tags)]); !ok {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if freed := s.ReleaseTag(tags[1]); freed != 1000 {
		t.Fatalf("ReleaseTag(%d) = %d, want 1000", tags[1], freed)
	}
	for i := 0; i < 8; i++ {
		s.Alloc(100, tags[i%len(tags)])
	}
	for i, tag := range tags {
		want := int64(1200)
		if i == 1 {
			want = 200
		}
		if got := s.TagBytes(tag); got != want {
			t.Errorf("TagBytes(%d) = %d, want %d", tag, got, want)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeFraction(t *testing.T) {
	s := mustSpace(t, 1000)
	s.Alloc(250, 1)
	if got := s.FreeFraction(); got != 0.75 {
		t.Fatalf("FreeFraction = %g, want 0.75", got)
	}
}

// Property: under random alloc/release sequences, accounting always
// balances (free + used == capacity), no extents overlap, and invariants
// hold.
func TestQuickAccountingInvariant(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		s, err := New(1 << 16)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(steps); i++ {
			switch rng.Intn(3) {
			case 0, 1:
				s.Alloc(rng.Int63n(4096)+1, rng.Intn(8))
			case 2:
				s.ReleaseTag(rng.Intn(8))
			}
			if s.FreeBytes()+s.UsedBytes() != s.Capacity() {
				return false
			}
			if err := s.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: total bytes allocated per tag equals total freed on release.
func TestQuickTagConservation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		s, err := New(1 << 20)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		allocated := make(map[int]int64)
		for i := 0; i < int(n); i++ {
			tag := rng.Intn(4)
			size := rng.Int63n(2048) + 1
			if _, ok := s.Alloc(size, tag); ok {
				allocated[tag] += size
			}
		}
		for tag, want := range allocated {
			if s.TagBytes(tag) != want {
				return false
			}
			if got := s.ReleaseTag(tag); got != want {
				return false
			}
		}
		return s.UsedBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocRelease(b *testing.B) {
	s, err := New(1 << 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tag := i % 16
		if _, ok := s.Alloc(64<<10, tag); !ok {
			s.ReleaseTag((i + 8) % 16)
			s.Alloc(64<<10, tag)
		}
	}
}

// TestGeneration pins what RoloSan's sweep memo relies on: every call that
// changes the allocation state advances Generation, and failed or
// read-only calls leave it put.
func TestGeneration(t *testing.T) {
	for _, c := range []struct {
		name    string
		call    func(s *Space)
		advance bool
	}{
		{"Alloc", func(s *Space) { s.Alloc(512, 2) }, true},
		{"ReleaseTag live", func(s *Space) { s.ReleaseTag(1) }, true},
		{"Reset", func(s *Space) { s.Reset() }, true},
		{"Alloc too large", func(s *Space) { s.Alloc(1<<20, 2) }, false},
		{"Alloc empty", func(s *Space) { s.Alloc(0, 2) }, false},
		{"ReleaseTag absent", func(s *Space) { s.ReleaseTag(9) }, false},
		{"CheckInvariants", func(s *Space) { _ = s.CheckInvariants() }, false},
		{"Tags", func(s *Space) { s.Tags() }, false},
		{"TagBytes", func(s *Space) { s.TagBytes(1) }, false},
		{"FreeBytes", func(s *Space) { s.FreeBytes() }, false},
		{"LargestFree", func(s *Space) { s.LargestFree() }, false},
	} {
		t.Run(strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
			s := mustSpace(t, 8192)
			for tag := 0; tag < 2; tag++ {
				if _, ok := s.Alloc(1024, tag); !ok {
					t.Fatal("setup alloc failed")
				}
			}
			before := s.Generation()
			c.call(s)
			if moved := s.Generation() != before; moved != c.advance {
				t.Fatalf("generation %d -> %d, want advanced=%v", before, s.Generation(), c.advance)
			}
		})
	}
}
