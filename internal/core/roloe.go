package core

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/cache"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/intervals"
	"github.com/rolo-storage/rolo/internal/invariant"
	"github.com/rolo-storage/rolo/internal/logspace"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/trace"
)

// EConfig parameterizes the RoLo-E controller.
type EConfig struct {
	// DestageFreeFraction triggers the centralized destage when the
	// on-duty logging space's free fraction falls below it.
	DestageFreeFraction float64
	// CacheFraction is the share of the logging region reserved for the
	// popular-read-block cache.
	CacheFraction float64
	// CacheBlockBytes is the granularity of the read cache.
	CacheBlockBytes int64
	// MissIdleSpinDown is how long a miss-awakened disk stays up after
	// its last foreground I/O before spinning back down.
	MissIdleSpinDown sim.Time
}

// DefaultEConfig returns the configuration used in the evaluation.
func DefaultEConfig() EConfig {
	return EConfig{
		DestageFreeFraction: 0.10,
		CacheFraction:       0.25,
		CacheBlockBytes:     64 << 10,
		MissIdleSpinDown:    sim.Minute,
	}
}

// Validate reports configuration errors.
func (c EConfig) Validate() error {
	switch {
	case c.DestageFreeFraction <= 0 || c.DestageFreeFraction >= 1:
		return fmt.Errorf("core: destage threshold %g outside (0,1)", c.DestageFreeFraction)
	case c.CacheFraction < 0 || c.CacheFraction >= 1:
		return fmt.Errorf("core: cache fraction %g outside [0,1)", c.CacheFraction)
	case c.CacheBlockBytes <= 0:
		return fmt.Errorf("core: non-positive cache block %d", c.CacheBlockBytes)
	case c.MissIdleSpinDown <= 0:
		return fmt.Errorf("core: non-positive miss idle timeout %v", c.MissIdleSpinDown)
	}
	return nil
}

// RoLoE is the energy-oriented flavor: only the on-duty mirrored pair
// spins; it logs both copies of every write and caches popular read blocks
// in its logging space. A read miss pays a disk spin-up; a full log forces
// a centralized destage that wakes the whole array. Its one log space
// moves with the on-duty role across rotations (each destage resets it);
// it holds the only current copy of the pairs' dirt.
type RoLoE struct {
	*array.Logged

	arr *array.Array
	cfg EConfig

	onDuty    int // on-duty pair index
	readCache *cache.LRU
	lastFG    []sim.Time // per disk id, last foreground completion
	readHits  int64
	readMiss  int64

	// allocScratch backs Submit's placement list; it is fully consumed
	// before Submit returns, so the array is reused per request
	// (DESIGN §11).
	allocScratch []logspace.Alloc
}

var (
	_ array.Controller       = (*RoLoE)(nil)
	_ telemetry.Instrumented = (*RoLoE)(nil)
	_ telemetry.GaugeSource  = (*RoLoE)(nil)
	_ invariant.Attachable   = (*RoLoE)(nil)
)

// NewE builds a RoLo-E controller. Pair 0 starts on duty; every other disk
// is placed in Standby.
func NewE(arr *array.Array, cfg EConfig) (*RoLoE, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if arr.LogRegionBytes() <= 0 {
		return nil, fmt.Errorf("core: array has no logging region")
	}
	if arr.Geom.Pairs < 2 {
		return nil, fmt.Errorf("core: rotation needs >= 2 pairs, have %d", arr.Geom.Pairs)
	}
	region := arr.LogRegionBytes()
	cacheBytes := int64(float64(region) * cfg.CacheFraction)
	logBytes := region - cacheBytes
	if logBytes <= 0 {
		return nil, fmt.Errorf("core: cache fraction %g leaves no log space", cfg.CacheFraction)
	}
	lru, err := cache.NewLRU(int(cacheBytes / cfg.CacheBlockBytes))
	if err != nil {
		return nil, err
	}
	lg, err := array.NewLogged(arr, array.LogLayout{
		Scheme: "RoLo-E", Spaces: 1, SpaceBytes: logBytes,
	})
	if err != nil {
		return nil, err
	}
	e := &RoLoE{
		Logged:    lg,
		arr:       arr,
		cfg:       cfg,
		readCache: lru,
		lastFG:    make([]sim.Time, 2*arr.Geom.Pairs),
	}
	for p := 0; p < arr.Geom.Pairs; p++ {
		if p == e.onDuty {
			continue
		}
		if err := arr.Primaries[p].ForceState(disk.Standby); err != nil {
			return nil, fmt.Errorf("core: init primary %d: %w", p, err)
		}
		if err := arr.Mirrors[p].ForceState(disk.Standby); err != nil {
			return nil, fmt.Errorf("core: init mirror %d: %w", p, err)
		}
	}
	e.BeginLogging(arr.Eng.Now())
	return e, nil
}

// ReadHitRate returns the fraction of reads served by the on-duty pair
// (the paper's Table V metric).
func (e *RoLoE) ReadHitRate() float64 {
	total := e.readHits + e.readMiss
	if total == 0 {
		return 0
	}
	return float64(e.readHits) / float64(total)
}

// ReadHits returns the number of reads served without a spin-up.
func (e *RoLoE) ReadHits() int64 { return e.readHits }

// ReadMisses returns the number of reads that needed an off-duty disk.
func (e *RoLoE) ReadMisses() int64 { return e.readMiss }

// Overflows returns the number of writes that bypassed the log because it
// was full or a destage was reclaiming it.
func (e *RoLoE) Overflows() int64 { return e.DirectWrites() }

// hitTarget picks the on-duty disk with the shorter queue, the primary on
// ties.
func (e *RoLoE) hitTarget() *disk.Disk {
	prim, mirr := e.arr.Primaries[e.onDuty], e.arr.Mirrors[e.onDuty]
	if mirr.QueueLen() < prim.QueueLen() {
		return mirr
	}
	return prim
}

// Submit implements array.Controller.
func (e *RoLoE) Submit(rec trace.Record) error {
	exts, err := e.Reqs.Arrive(e.arr.Geom, rec)
	if err != nil {
		return fmt.Errorf("RoLo-E: %w", err)
	}
	if rec.Op == trace.Write {
		return e.submitWrite(rec, exts)
	}
	return e.submitRead(rec, exts)
}

func (e *RoLoE) submitWrite(rec trace.Record, exts []raid.Extent) error {
	// Writes invalidate any cached copies of the blocks they touch.
	for b := rec.Offset / e.cfg.CacheBlockBytes; b <= (rec.End()-1)/e.cfg.CacheBlockBytes; b++ {
		e.readCache.Remove(b)
	}

	allocs := e.allocScratch[:0]
	// While the centralized destage is reclaiming the log, nothing may be
	// logged: a copy logged now would be destroyed by the reset at the end
	// of the destage while its dirty span persisted — the log would no
	// longer cover every dirty byte. The array is fully awake during a
	// destage anyway, so these writes take the in-place path below.
	allOK := !e.Destaging()
	for _, ext := range exts {
		if !allOK {
			break
		}
		a, ok := e.Alloc(0, ext.Length, ext.Pair)
		if !ok {
			allOK = false
			break
		}
		allocs = append(allocs, a)
	}
	e.allocScratch = allocs[:0]
	if !allOK {
		// Log full or mid-destage: the whole array is awake (or waking),
		// so write both copies in place.
		e.Bypassed()
		req := e.Reqs.Start(rec, 2*len(exts))
		for _, ext := range exts {
			if err := e.arr.MirroredWrite(ext, req.Done); err != nil {
				return fmt.Errorf("RoLo-E: overflow write: %w", err)
			}
			e.touchFG(e.arr.Primaries[ext.Pair])
			e.touchFG(e.arr.Mirrors[ext.Pair])
			// In-place writes supersede whatever the log held.
			e.CleanDirty(ext.Pair, ext.Offset, ext.Offset+ext.Length)
		}
		e.maybeDestage()
		return nil
	}

	req := e.Reqs.Start(rec, 2*len(exts))
	for i, ext := range exts {
		for _, target := range [...]*disk.Disk{e.arr.Primaries[e.onDuty], e.arr.Mirrors[e.onDuty]} {
			io := e.arr.LogIO(allocs[i].Offset, allocs[i].Length, true, false)
			io.OnDone = req.Done
			if err := target.Submit(io); err != nil {
				return fmt.Errorf("RoLo-E: log write: %w", err)
			}
		}
		e.MarkDirty(ext.Pair, ext.Offset, ext.Offset+ext.Length)
	}
	e.maybeDestage()
	return nil
}

func (e *RoLoE) submitRead(rec trace.Record, exts []raid.Extent) error {
	// A read is a hit when every extent is available on an on-duty pair:
	// either its latest version lives in the log (dirty) or it is cached.
	hit := true
	for _, ext := range exts {
		if e.Dirty(ext.Pair, ext.Offset, ext.Offset+ext.Length) {
			continue
		}
		if !e.cachedRange(rec.Offset, rec.Size) {
			hit = false
			break
		}
	}
	req := e.Reqs.Start(rec, len(exts))
	if hit {
		e.readHits++
		if e.Tel != nil {
			e.Tel.CacheHit(rec.At, e.onDuty, rec.Size)
		}
		for _, ext := range exts {
			// Serve from the less-loaded on-duty disk; address the read
			// within the logging region (its exact placement does not
			// change the seek statistics materially).
			target := e.hitTarget()
			io := e.arr.LogIO(e.logOffFor(ext.Offset, ext.Length), ext.Length, false, false)
			io.OnDone = req.Done
			if err := target.Submit(io); err != nil {
				return fmt.Errorf("RoLo-E: hit read: %w", err)
			}
		}
		return nil
	}

	e.readMiss++
	if e.Tel != nil {
		e.Tel.CacheMiss(rec.At, e.onDuty, rec.Size)
	}
	// Unlike the other paths, a miss allocates its completion closures.
	// It allocates anyway — the standby disk it wakes allocates per spin
	// transition and the read-cache insert allocates list nodes — and
	// misses are rare (about 2% of RoLo-E reads on hm_1), so pooling the
	// closures would not move the per-request cost.
	for _, ext := range exts {
		ext := ext
		target := e.arr.Primaries[ext.Pair]
		io := e.arr.DataIO(ext.Offset, ext.Length, false, false)
		io.OnDone = func(now sim.Time) {
			e.touchFG(target)
			e.armSpinDown(target, ext.Pair)
			req.Done(now)
		}
		if err := target.Submit(io); err != nil {
			return fmt.Errorf("RoLo-E: miss read: %w", err)
		}
		e.touchFG(target)
	}
	// Cache the fetched blocks in the logging space: background writes to
	// the on-duty pair that do not affect the response time.
	e.insertCache(rec.Offset, rec.Size)
	return nil
}

// logOffFor maps a data-region offset to an in-bounds logging-region
// offset for modeling reads of logged/cached data. The exact placement is
// an approximation of the sequential log layout; clamping keeps the IO
// within the region.
func (e *RoLoE) logOffFor(off, length int64) int64 {
	region := e.Capacity(0)
	lo := off % region
	if lo+length > region {
		lo = region - length
	}
	if lo < 0 {
		lo = 0
	}
	return lo
}

// cachedRange reports whether every cache block covering [off, off+size)
// is resident, touching each for LRU recency.
func (e *RoLoE) cachedRange(off, size int64) bool {
	all := true
	for b := off / e.cfg.CacheBlockBytes; b <= (off+size-1)/e.cfg.CacheBlockBytes; b++ {
		if !e.readCache.Get(b) {
			all = false
		}
	}
	return all
}

// insertCache records the blocks as cached and issues the background cache
// writes into the on-duty logging space.
func (e *RoLoE) insertCache(off, size int64) {
	if e.readCache.Cap() == 0 {
		return
	}
	for b := off / e.cfg.CacheBlockBytes; b <= (off+size-1)/e.cfg.CacheBlockBytes; b++ {
		e.readCache.Put(b)
	}
	// One background write per disk of the on-duty pair covering the
	// inserted blocks.
	logOff := e.logOffFor(off, size)
	for _, target := range [...]*disk.Disk{e.arr.Primaries[e.onDuty], e.arr.Mirrors[e.onDuty]} {
		io := e.arr.LogIO(logOff, size, true, true)
		if err := target.Submit(io); err != nil {
			// Cache fills are best-effort; losing one only costs a
			// future hit.
			continue
		}
	}
}

// touchFG records foreground activity for the idle spin-down logic.
func (e *RoLoE) touchFG(d *disk.Disk) {
	if id := d.ID(); id >= 0 && id < len(e.lastFG) {
		e.lastFG[id] = e.arr.Eng.Now()
	}
}

// armSpinDown schedules the miss-awakened disk to spin back down after the
// configured idle window, unless it became on-duty or saw new work.
func (e *RoLoE) armSpinDown(d *disk.Disk, pair int) {
	at := e.arr.Eng.Now()
	e.arr.Eng.After(e.cfg.MissIdleSpinDown, func(now sim.Time) {
		if e.Closed() || e.Destaging() || pair == e.onDuty {
			return
		}
		if e.lastFG[d.ID()] > at {
			return // newer activity re-armed its own timer
		}
		array.SpinDownWhenIdle(e.arr.Eng, d, func() bool {
			return !e.Closed() && !e.Destaging() && pair != e.onDuty && e.lastFG[d.ID()] <= at
		})
	})
}

func (e *RoLoE) maybeDestage() {
	if e.Destaging() || e.FreeFraction(0) >= e.cfg.DestageFreeFraction {
		return
	}
	e.startDestage(e.arr.Eng.Now())
}

// startDestage is RoLo-E's centralized destage: the whole array wakes, the
// logged data is applied to both disks of every dirty pair, the log is
// reset, and the on-duty role rotates to the next pair.
func (e *RoLoE) startDestage(now sim.Time) {
	e.BeginDestage(now)
	for _, d := range e.arr.AllDisks() {
		_ = d.SpinUp()
	}
	// Alternate the log-read source between the on-duty pair's two disks
	// by pair index to spread the read load.
	srcs := [...]*disk.Disk{e.arr.Primaries[e.onDuty], e.arr.Mirrors[e.onDuty]}
	e.DestageEach(func(p int, work *intervals.Set) *array.Copier {
		return array.NewCopier(e.arr.Eng, srcs[p%len(srcs)],
			[]*disk.Disk{e.arr.Primaries[p], e.arr.Mirrors[p]}, work, array.DestageChunk,
			func(sp intervals.Span) *disk.IO {
				// The logged copy is read back from the logging region;
				// its placement approximates the sequential log layout.
				return e.arr.LogIO(e.logOffFor(sp.Start, sp.Len()), sp.Len(), false, true)
			},
			func(sp intervals.Span) *disk.IO {
				return e.arr.DataIO(sp.Start, sp.Len(), true, true)
			},
		)
	}, e.endDestage)
}

func (e *RoLoE) endDestage(now sim.Time) {
	e.EndDestage(now, e.ResetSpace(0))
	e.readCache.Clear()
	e.onDuty = (e.onDuty + 1) % e.arr.Geom.Pairs
	e.Rotated(now, e.onDuty)
	for p := 0; p < e.arr.Geom.Pairs; p++ {
		if p == e.onDuty {
			continue
		}
		for _, d := range [...]*disk.Disk{e.arr.Primaries[p], e.arr.Mirrors[p]} {
			array.SpinDownWhenIdle(e.arr.Eng, d, func() bool {
				return !e.Closed() && !e.Destaging() && p != e.onDuty
			})
		}
	}
}
