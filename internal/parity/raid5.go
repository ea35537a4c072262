package parity

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/metrics"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

// Array is a RAID5 disk set with the shared addressing helpers.
type Array struct {
	Eng   *sim.Engine
	Geom  Geometry
	Disks []*disk.Disk

	// ios is the array-wide IO free list; drives recycle completed
	// requests back into it (see disk.IOPool).
	ios disk.IOPool
}

// NewArray builds a RAID5 array; each drive reserves everything past the
// data region as logging space for RoLo5.
func NewArray(eng *sim.Engine, geom Geometry, cfg disk.Config) (*Array, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if geom.DataBytesPerDisk > cfg.CapacityBytes {
		return nil, fmt.Errorf("parity: data region %d exceeds disk capacity %d",
			geom.DataBytesPerDisk, cfg.CapacityBytes)
	}
	a := &Array{Eng: eng, Geom: geom}
	for i := 0; i < geom.Disks; i++ {
		d, err := disk.New(i, cfg, eng)
		if err != nil {
			return nil, err
		}
		a.Disks = append(a.Disks, d)
	}
	return a, nil
}

// LogRegionBytes is the per-disk logging capacity.
func (a *Array) LogRegionBytes() int64 {
	return a.Disks[0].Config().CapacityBytes - a.Geom.DataBytesPerDisk
}

func sectorRange(off, length int64) (lba, sectors int64) {
	lba = off / disk.SectorSize
	end := (off + length + disk.SectorSize - 1) / disk.SectorSize
	return lba, end - lba
}

// DataIO builds an IO against a disk's data region.
func (a *Array) DataIO(off, length int64, write, background bool) *disk.IO {
	lba, sectors := sectorRange(off, length)
	return a.pooledIO(lba, sectors, write, background)
}

// LogIO builds an IO against a disk's logging region.
func (a *Array) LogIO(off, length int64, write, background bool) *disk.IO {
	lba, sectors := sectorRange(off, length)
	return a.pooledIO(a.Geom.DataBytesPerDisk/disk.SectorSize+lba, sectors, write, background)
}

// pooledIO draws a request from the array's IO free list; the drive
// recycles it after the completion callback runs, so callers must not
// retain the pointer past their OnDone.
func (a *Array) pooledIO(lba, sectors int64, write, background bool) *disk.IO {
	io := a.ios.Get()
	io.LBA = lba
	io.Sectors = sectors
	io.Write = write
	io.Background = background
	return io
}

// TotalEnergyJ sums cumulative energy.
func (a *Array) TotalEnergyJ() float64 {
	var e float64
	for _, d := range a.Disks {
		e += d.EnergyJ()
	}
	return e
}

// join mirrors array.Join without importing it (the parity substrate is
// self-contained).
type join struct {
	remaining int
	fn        func(sim.Time)
}

func newJoin(n int, fn func(sim.Time)) *join { return &join{remaining: n, fn: fn} }

func (j *join) done(now sim.Time) {
	j.remaining--
	if j.remaining == 0 && j.fn != nil {
		j.fn(now)
	}
}

// RAID5 is the parity baseline: small writes pay the classic
// read-modify-write penalty (read old data + old parity, write new data +
// new parity); full-stripe writes compute parity from the payload and
// write everything once.
type RAID5 struct {
	arr  *Array
	resp metrics.ResponseStats

	rmwWrites        int64
	fullStripeWrites int64
}

// NewRAID5 returns the baseline controller.
func NewRAID5(arr *Array) *RAID5 { return &RAID5{arr: arr} }

// Responses returns response-time statistics.
func (c *RAID5) Responses() *metrics.ResponseStats { return &c.resp }

// RMWWrites counts strips written via read-modify-write.
func (c *RAID5) RMWWrites() int64 { return c.rmwWrites }

// FullStripeWrites counts stripes written with the full-stripe shortcut.
func (c *RAID5) FullStripeWrites() int64 { return c.fullStripeWrites }

// Submit services one logical request.
func (c *RAID5) Submit(rec trace.Record) error {
	strips, err := c.arr.Geom.Map(rec.Offset, rec.Size)
	if err != nil {
		return fmt.Errorf("raid5: %w", err)
	}
	arrive := rec.At
	record := func(now sim.Time) { c.resp.AddClass(now-arrive, rec.Op == trace.Write) }
	if rec.Op == trace.Read {
		j := newJoin(len(strips), record)
		for _, s := range strips {
			io := c.arr.DataIO(s.Offset, s.Length, false, false)
			io.OnDone = j.done
			if err := c.arr.Disks[s.Disk].Submit(io); err != nil {
				return fmt.Errorf("raid5: read: %w", err)
			}
		}
		return nil
	}

	fullSet := map[int64]bool{}
	full, _ := c.arr.Geom.FullStripes(rec.Offset, rec.Size)
	for _, s := range full {
		fullSet[s] = true
	}
	// Count the IOs first so the join is exact.
	ios := 0
	seenParity := map[int64]bool{}
	for _, s := range strips {
		if fullSet[s.Stripe] {
			ios++ // one data write; parity counted once per stripe below
		} else {
			ios += 2 // read old data + write new data
		}
		if !seenParity[s.Stripe] {
			seenParity[s.Stripe] = true
			if fullSet[s.Stripe] {
				ios++ // parity write
			} else {
				ios += 2 // read old parity + write new parity
			}
		}
	}
	j := newJoin(ios, record)
	seenParity = map[int64]bool{}
	for _, s := range strips {
		target := c.arr.Disks[s.Disk]
		if fullSet[s.Stripe] {
			c.fullStripeWrites++
			w := c.arr.DataIO(s.Offset, s.Length, true, false)
			w.OnDone = j.done
			if err := target.Submit(w); err != nil {
				return fmt.Errorf("raid5: full-stripe write: %w", err)
			}
		} else {
			c.rmwWrites++
			r := c.arr.DataIO(s.Offset, s.Length, false, false)
			r.OnDone = j.done
			if err := target.Submit(r); err != nil {
				return fmt.Errorf("raid5: rmw read: %w", err)
			}
			w := c.arr.DataIO(s.Offset, s.Length, true, false)
			w.OnDone = j.done
			if err := target.Submit(w); err != nil {
				return fmt.Errorf("raid5: rmw write: %w", err)
			}
		}
		if seenParity[s.Stripe] {
			continue
		}
		seenParity[s.Stripe] = true
		pd := c.arr.Disks[c.arr.Geom.ParityDisk(s.Stripe)]
		pOff := c.arr.Geom.ParityOffset(s.Stripe)
		if !fullSet[s.Stripe] {
			pr := c.arr.DataIO(pOff, s.Length, false, false)
			pr.OnDone = j.done
			if err := pd.Submit(pr); err != nil {
				return fmt.Errorf("raid5: parity read: %w", err)
			}
		}
		pw := c.arr.DataIO(pOff, c.arr.Geom.StripUnitBytes, true, false)
		pw.OnDone = j.done
		if err := pd.Submit(pw); err != nil {
			return fmt.Errorf("raid5: parity write: %w", err)
		}
	}
	return nil
}

// Close finalizes the run (no-op for the baseline).
func (c *RAID5) Close(sim.Time) {}
