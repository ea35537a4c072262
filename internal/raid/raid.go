// Package raid implements RAID10 geometry: striping a logical volume across
// mirrored disk pairs and splitting volume requests into per-pair extents.
//
// Layout follows the paper's configuration: a stripe unit of 16-64 KB is
// rotated across the pairs; each pair holds identical data on its primary
// and mirrored disk. Each disk reserves the tail of its LBA space as the
// logger region (managed by package logspace), so the geometry is
// parameterized by the per-disk *data* capacity, not the raw disk size.
package raid

import (
	"fmt"
)

// Geometry describes a RAID10 array's data layout.
type Geometry struct {
	// Pairs is the number of mirrored disk pairs (array has 2·Pairs disks).
	Pairs int
	// StripeUnitBytes is the striping granularity.
	StripeUnitBytes int64
	// DataBytesPerDisk is the size of the data region on each disk; the
	// remainder of the disk is logging space.
	DataBytesPerDisk int64
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	switch {
	case g.Pairs <= 0:
		return fmt.Errorf("raid: non-positive pair count %d", g.Pairs)
	case g.StripeUnitBytes <= 0:
		return fmt.Errorf("raid: non-positive stripe unit %d", g.StripeUnitBytes)
	case g.DataBytesPerDisk <= 0:
		return fmt.Errorf("raid: non-positive data capacity %d", g.DataBytesPerDisk)
	case g.DataBytesPerDisk%g.StripeUnitBytes != 0:
		return fmt.Errorf("raid: data capacity %d not a multiple of stripe unit %d",
			g.DataBytesPerDisk, g.StripeUnitBytes)
	}
	return nil
}

// VolumeBytes returns the logical volume capacity.
func (g Geometry) VolumeBytes() int64 { return int64(g.Pairs) * g.DataBytesPerDisk }

// Extent is a contiguous range within one pair's data region. The same
// offsets apply to the pair's primary and mirrored disk.
type Extent struct {
	Pair   int
	Offset int64 // byte offset within the pair's data region
	Length int64
}

// End returns the offset one past the extent.
func (e Extent) End() int64 { return e.Offset + e.Length }

// Map splits the volume range [offset, offset+length) into per-pair
// extents, in volume order. Fragments that land adjacently on the same pair
// are merged.
func (g Geometry) Map(offset, length int64) ([]Extent, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g.AppendExtents(nil, offset, length)
}

// AppendExtents is Map appending into dst, so a caller that reuses one
// scratch slice per request maps without allocating. It runs once per
// request, so it does not validate the geometry, which its owner (e.g.
// array.New) validated when accepting it; it guards only against the
// division by zero of an unvalidated one.
func (g Geometry) AppendExtents(dst []Extent, offset, length int64) ([]Extent, error) {
	if g.Pairs <= 0 || g.StripeUnitBytes <= 0 {
		return nil, fmt.Errorf("raid: %d pairs with stripe unit %d", g.Pairs, g.StripeUnitBytes)
	}
	if offset < 0 || length <= 0 || offset+length > g.VolumeBytes() {
		return nil, fmt.Errorf("raid: range [%d,%d) outside volume of %d bytes",
			offset, offset+length, g.VolumeBytes())
	}
	// Two divisions place the first fragment; each following fragment
	// starts a stripe unit on the next pair, wrapping to the next row.
	su, pairs := g.StripeUnitBytes, int64(g.Pairs)
	stripe := offset / su
	within := offset - stripe*su
	row := stripe / pairs
	pair := stripe - row*pairs
	out, first := dst, len(dst)
	for length > 0 {
		frag := min(su-within, length)
		pairOff := row*su + within
		if n := len(out); n > first && out[n-1].Pair == int(pair) && out[n-1].End() == pairOff {
			out[n-1].Length += frag
		} else {
			out = append(out, Extent{Pair: int(pair), Offset: pairOff, Length: frag})
		}
		length -= frag
		within = 0
		if pair++; pair == pairs {
			pair, row = 0, row+1
		}
	}
	return out, nil
}

// PairOffsetToVolume is the inverse of Map for a single byte: it returns
// the volume offset stored at the given pair data-region offset.
func (g Geometry) PairOffsetToVolume(pair int, pairOff int64) (int64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if pair < 0 || pair >= g.Pairs {
		return 0, fmt.Errorf("raid: pair %d outside [0,%d)", pair, g.Pairs)
	}
	if pairOff < 0 || pairOff >= g.DataBytesPerDisk {
		return 0, fmt.Errorf("raid: pair offset %d outside data region of %d",
			pairOff, g.DataBytesPerDisk)
	}
	su := g.StripeUnitBytes
	stripeOnPair := pairOff / su
	within := pairOff % su
	stripe := stripeOnPair*int64(g.Pairs) + int64(pair)
	return stripe*su + within, nil
}
