// Package array provides the disk-array scaffolding shared by every scheme
// controller: disk construction and addressing for a RAID10 layout with
// per-disk logging regions, sub-I/O join counters, a background
// interval-copy engine used by all destagers, the trace-replay runner, and
// Logged — the log bookkeeping, sanitizer hooks and centralized destage
// the logging schemes embed.
package array

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
)

// Array is a RAID10 disk array: Pairs primaries, Pairs mirrors, and
// optional extra disks (GRAID's dedicated logger). Each disk's LBA space is
// split into a data region (the first Geom.DataBytesPerDisk bytes) and a
// logging region (the remainder).
type Array struct {
	Eng     *sim.Engine
	Geom    raid.Geometry
	DiskCfg disk.Config

	Primaries []*disk.Disk
	Mirrors   []*disk.Disk
	Extras    []*disk.Disk

	// ios is the array-wide IO free list: DataIO/LogIO/PooledIO draw
	// from it and the drives recycle completed requests back into it,
	// so steady-state request submission allocates nothing.
	ios disk.IOPool
}

// New builds an array with the given geometry. extras additional disks are
// created beyond the mirrored pairs.
func New(eng *sim.Engine, geom raid.Geometry, cfg disk.Config, extras int) (*Array, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if geom.DataBytesPerDisk > cfg.CapacityBytes {
		return nil, fmt.Errorf("array: data region %d exceeds disk capacity %d",
			geom.DataBytesPerDisk, cfg.CapacityBytes)
	}
	a := &Array{Eng: eng, Geom: geom, DiskCfg: cfg}
	id := 0
	mk := func() (*disk.Disk, error) {
		d, err := disk.New(id, cfg, eng)
		id++
		return d, err
	}
	for i := 0; i < geom.Pairs; i++ {
		d, err := mk()
		if err != nil {
			return nil, err
		}
		a.Primaries = append(a.Primaries, d)
	}
	for i := 0; i < geom.Pairs; i++ {
		d, err := mk()
		if err != nil {
			return nil, err
		}
		a.Mirrors = append(a.Mirrors, d)
	}
	for i := 0; i < extras; i++ {
		d, err := mk()
		if err != nil {
			return nil, err
		}
		a.Extras = append(a.Extras, d)
	}
	return a, nil
}

// LogRegionBytes returns the per-disk logging capacity.
func (a *Array) LogRegionBytes() int64 {
	return a.DiskCfg.CapacityBytes - a.Geom.DataBytesPerDisk
}

// dataRegionSectors is the first logging-region LBA.
func (a *Array) dataRegionSectors() int64 {
	return a.Geom.DataBytesPerDisk / disk.SectorSize
}

// SectorRange converts a byte range to an (LBA, sector count) pair,
// expanding to sector boundaries.
func SectorRange(off, length int64) (lba, sectors int64) {
	lba = off / disk.SectorSize
	end := (off + length + disk.SectorSize - 1) / disk.SectorSize
	return lba, end - lba
}

// DataIO builds an IO against a disk's data region.
func (a *Array) DataIO(off, length int64, write, background bool) *disk.IO {
	lba, sectors := SectorRange(off, length)
	return a.PooledIO(lba, sectors, write, background)
}

// LogIO builds an IO against a disk's logging region, where off is relative
// to the region start.
func (a *Array) LogIO(off, length int64, write, background bool) *disk.IO {
	lba, sectors := SectorRange(off, length)
	return a.PooledIO(a.dataRegionSectors()+lba, sectors, write, background)
}

// PooledIO builds a raw IO addressed by absolute LBA from the array's IO
// pool. DataIO and LogIO cover the shared regions; this covers extra
// disks with their own addressing (GRAID's dedicated log device). The IO
// recycles into the pool once the drive has run its completion callback,
// so callers must not retain it past their OnDone.
func (a *Array) PooledIO(lba, sectors int64, write, background bool) *disk.IO {
	io := a.ios.Get()
	io.LBA = lba
	io.Sectors = sectors
	io.Write = write
	io.Background = background
	return io
}

// MirroredWrite writes extent e in place to both disks of its pair,
// primary first; each completion calls done.
func (a *Array) MirroredWrite(e raid.Extent, done func(now sim.Time)) error {
	for _, d := range [...]*disk.Disk{a.Primaries[e.Pair], a.Mirrors[e.Pair]} {
		io := a.DataIO(e.Offset, e.Length, true, false)
		io.OnDone = done
		if err := d.Submit(io); err != nil {
			return fmt.Errorf("array: write pair %d: %w", e.Pair, err)
		}
	}
	return nil
}

// AllDisks returns every disk in the array.
func (a *Array) AllDisks() []*disk.Disk {
	out := make([]*disk.Disk, 0, len(a.Primaries)+len(a.Mirrors)+len(a.Extras))
	out = append(out, a.Primaries...)
	out = append(out, a.Mirrors...)
	out = append(out, a.Extras...)
	return out
}

// TotalEnergyJ returns cumulative array energy up to the current time.
func (a *Array) TotalEnergyJ() float64 {
	var e float64
	for _, d := range a.AllDisks() {
		e += d.EnergyJ()
	}
	return e
}

// TotalSpinCycles returns the total number of spin-up events across the
// array (the paper's Table I metric).
func (a *Array) TotalSpinCycles() int {
	n := 0
	for _, d := range a.AllDisks() {
		n += d.SpinCycles()
	}
	return n
}

// StateDurations aggregates per-state time over the given disks.
func StateDurations(disks []*disk.Disk) map[disk.PowerState]sim.Time {
	out := make(map[disk.PowerState]sim.Time)
	for _, d := range disks {
		for s, dur := range d.Stats().StateDur {
			out[s] += dur
		}
	}
	return out
}

// Join invokes a callback once a fixed number of sub-I/O completions have
// arrived. Create it with the expected count, then use Done as (or from)
// each sub-I/O's OnDone. Per-request completions use the pooled Request
// instead; Join serves the once-per-destage joins.
type Join struct {
	remaining int
	fn        func(now sim.Time)
}

// NewJoin returns a Join expecting n completions; n must be > 0, since a
// zero-count join never fires.
func NewJoin(n int, fn func(now sim.Time)) *Join {
	return &Join{remaining: n, fn: fn}
}

// Done records one completion, firing the callback on the last.
func (j *Join) Done(now sim.Time) {
	j.remaining--
	if j.remaining == 0 && j.fn != nil {
		j.fn(now)
	}
}
