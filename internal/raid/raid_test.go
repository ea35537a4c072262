package raid

import (
	"testing"
	"testing/quick"
)

func testGeom() Geometry {
	return Geometry{Pairs: 4, StripeUnitBytes: 64 << 10, DataBytesPerDisk: 1 << 30}
}

func TestValidate(t *testing.T) {
	if err := testGeom().Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := []Geometry{
		{Pairs: 0, StripeUnitBytes: 64 << 10, DataBytesPerDisk: 1 << 30},
		{Pairs: 4, StripeUnitBytes: 0, DataBytesPerDisk: 1 << 30},
		{Pairs: 4, StripeUnitBytes: 64 << 10, DataBytesPerDisk: 0},
		{Pairs: 4, StripeUnitBytes: 3000, DataBytesPerDisk: 1 << 30}, // not a multiple
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted: %+v", i, g)
		}
	}
}

func TestVolumeBytes(t *testing.T) {
	g := testGeom()
	if got := g.VolumeBytes(); got != 4<<30 {
		t.Fatalf("VolumeBytes = %d, want %d", got, int64(4)<<30)
	}
}

func TestMapSingleStripeUnit(t *testing.T) {
	g := testGeom()
	su := g.StripeUnitBytes
	// Stripe k lands on pair k%4 at offset (k/4)*su.
	for k := int64(0); k < 10; k++ {
		exts, err := g.Map(k*su, su)
		if err != nil {
			t.Fatal(err)
		}
		if len(exts) != 1 {
			t.Fatalf("stripe %d: %d extents, want 1", k, len(exts))
		}
		want := Extent{Pair: int(k % 4), Offset: (k / 4) * su, Length: su}
		if exts[0] != want {
			t.Fatalf("stripe %d: got %+v, want %+v", k, exts[0], want)
		}
	}
}

func TestMapUnalignedSpansStripes(t *testing.T) {
	g := testGeom()
	su := g.StripeUnitBytes
	// A request starting mid-stripe and crossing into the next unit.
	exts, err := g.Map(su/2, su)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 2 {
		t.Fatalf("%d extents, want 2: %+v", len(exts), exts)
	}
	if exts[0] != (Extent{Pair: 0, Offset: su / 2, Length: su / 2}) {
		t.Errorf("first extent %+v", exts[0])
	}
	if exts[1] != (Extent{Pair: 1, Offset: 0, Length: su / 2}) {
		t.Errorf("second extent %+v", exts[1])
	}
}

func TestMapSinglePairMerges(t *testing.T) {
	g := Geometry{Pairs: 1, StripeUnitBytes: 64 << 10, DataBytesPerDisk: 1 << 30}
	exts, err := g.Map(0, 10*g.StripeUnitBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 1 {
		t.Fatalf("single-pair map produced %d extents, want 1 merged: %+v", len(exts), exts)
	}
	if exts[0].Length != 10*g.StripeUnitBytes {
		t.Fatalf("merged length = %d", exts[0].Length)
	}
}

func TestMapBounds(t *testing.T) {
	g := testGeom()
	if _, err := g.Map(-1, 10); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := g.Map(0, 0); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := g.Map(g.VolumeBytes()-10, 20); err == nil {
		t.Error("range past end accepted")
	}
	if _, err := g.Map(g.VolumeBytes()-10, 10); err != nil {
		t.Errorf("final bytes rejected: %v", err)
	}
}

func TestPairOffsetToVolumeRoundTrip(t *testing.T) {
	g := testGeom()
	for _, off := range []int64{0, 1, g.StripeUnitBytes - 1, g.StripeUnitBytes, 123456, g.VolumeBytes() - 1} {
		exts, err := g.Map(off, 1)
		if err != nil {
			t.Fatal(err)
		}
		back, err := g.PairOffsetToVolume(exts[0].Pair, exts[0].Offset)
		if err != nil {
			t.Fatal(err)
		}
		if back != off {
			t.Fatalf("round trip %d -> (%d,%d) -> %d", off, exts[0].Pair, exts[0].Offset, back)
		}
	}
}

func TestPairOffsetToVolumeBounds(t *testing.T) {
	g := testGeom()
	if _, err := g.PairOffsetToVolume(-1, 0); err == nil {
		t.Error("negative pair accepted")
	}
	if _, err := g.PairOffsetToVolume(4, 0); err == nil {
		t.Error("pair past end accepted")
	}
	if _, err := g.PairOffsetToVolume(0, g.DataBytesPerDisk); err == nil {
		t.Error("offset past data region accepted")
	}
}

// Property: Map conserves length, produces in-bounds extents, and the
// extents tile the request without overlap when mapped back to the volume.
func TestQuickMapConservation(t *testing.T) {
	g := testGeom()
	f := func(offRaw, lenRaw uint32) bool {
		off := int64(offRaw) % (g.VolumeBytes() - 1)
		length := int64(lenRaw)%(1<<20) + 1
		if off+length > g.VolumeBytes() {
			length = g.VolumeBytes() - off
		}
		exts, err := g.Map(off, length)
		if err != nil {
			return false
		}
		var total int64
		cursor := off
		for _, e := range exts {
			if e.Pair < 0 || e.Pair >= g.Pairs {
				return false
			}
			if e.Offset < 0 || e.End() > g.DataBytesPerDisk {
				return false
			}
			// First byte of each extent must map back to the cursor.
			back, err := g.PairOffsetToVolume(e.Pair, e.Offset)
			if err != nil || back != cursor {
				return false
			}
			total += e.Length
			cursor += e.Length
		}
		return total == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct volume bytes map to distinct (pair, offset) addresses.
func TestQuickMapInjective(t *testing.T) {
	g := Geometry{Pairs: 3, StripeUnitBytes: 4 << 10, DataBytesPerDisk: 64 << 10}
	seen := make(map[[2]int64]int64)
	for off := int64(0); off < g.VolumeBytes(); off += 512 {
		exts, err := g.Map(off, 1)
		if err != nil {
			t.Fatal(err)
		}
		key := [2]int64{int64(exts[0].Pair), exts[0].Offset}
		if prev, dup := seen[key]; dup {
			t.Fatalf("volume offsets %d and %d both map to %v", prev, off, key)
		}
		seen[key] = off
	}
}

// referenceExtents is the per-fragment division form of Map, which
// AppendExtents replaced by stepping pair and row.
func referenceExtents(g Geometry, offset, length int64) []Extent {
	var out []Extent
	su := g.StripeUnitBytes
	for length > 0 {
		stripe, within := offset/su, offset%su
		frag := min(su-within, length)
		pair := int(stripe % int64(g.Pairs))
		pairOff := (stripe/int64(g.Pairs))*su + within
		if n := len(out); n > 0 && out[n-1].Pair == pair && out[n-1].End() == pairOff {
			out[n-1].Length += frag
		} else {
			out = append(out, Extent{Pair: pair, Offset: pairOff, Length: frag})
		}
		offset += frag
		length -= frag
	}
	return out
}

// Property: Map matches the per-fragment division form for every pair
// count, including one pair, where every fragment merges.
func TestQuickMapMatchesReference(t *testing.T) {
	for pairs := 1; pairs <= 5; pairs++ {
		g := Geometry{Pairs: pairs, StripeUnitBytes: 16 << 10, DataBytesPerDisk: 1 << 24}
		f := func(offRaw, lenRaw uint32) bool {
			off := int64(offRaw) % (g.VolumeBytes() - 1)
			length := min(int64(lenRaw)%(1<<19)+1, g.VolumeBytes()-off)
			got, err := g.Map(off, length)
			want := referenceExtents(g, off, length)
			if err != nil || len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%d pairs: %v", pairs, err)
		}
	}
}

func BenchmarkMap(b *testing.B) {
	g := testGeom()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Map(int64(i)%(g.VolumeBytes()-1<<20), 256<<10); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendExtentsKeepsPrefix checks that AppendExtents leaves dst's
// existing entries alone — a fragment adjacent to the last of them is not
// merged into it — and reuses dst's capacity without allocating.
func TestAppendExtentsKeepsPrefix(t *testing.T) {
	g := Geometry{Pairs: 1, StripeUnitBytes: 64 << 10, DataBytesPerDisk: 1 << 30}
	prefix := Extent{Pair: 0, Offset: 0, Length: 4096}
	got, err := g.AppendExtents([]Extent{prefix}, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	want := []Extent{prefix, {Pair: 0, Offset: 4096, Length: 4096}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	g = testGeom()
	scratch := make([]Extent, 0, 16)
	if n := testing.AllocsPerRun(100, func() {
		scratch, err = g.AppendExtents(scratch[:0], 1000, 5*g.StripeUnitBytes)
	}); n != 0 || err != nil {
		t.Fatalf("AppendExtents into scratch: %v allocs/op, err %v", n, err)
	}
	exts, _ := g.Map(1000, 5*g.StripeUnitBytes)
	if len(exts) != len(scratch) {
		t.Fatalf("Map gave %d extents, AppendExtents %d", len(exts), len(scratch))
	}
	for i := range exts {
		if exts[i] != scratch[i] {
			t.Fatalf("extent %d: Map %+v, AppendExtents %+v", i, exts[i], scratch[i])
		}
	}
}
