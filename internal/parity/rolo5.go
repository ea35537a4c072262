package parity

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/intervals"
	"github.com/rolo-storage/rolo/internal/logspace"
	"github.com/rolo-storage/rolo/internal/metrics"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

// RoLo5Config parameterizes the rotated parity-logging controller.
type RoLo5Config struct {
	// RotateFreeFraction rotates the logger when its free fraction drops
	// below this value.
	RotateFreeFraction float64
	// ParityChunkStripes caps how many consecutive dirty stripes one
	// background parity-rebuild pass handles.
	ParityChunkStripes int64
}

// DefaultRoLo5Config returns sensible defaults.
func DefaultRoLo5Config() RoLo5Config {
	return RoLo5Config{RotateFreeFraction: 0.10, ParityChunkStripes: 8}
}

// Validate reports configuration errors.
func (c RoLo5Config) Validate() error {
	if c.RotateFreeFraction <= 0 || c.RotateFreeFraction >= 1 {
		return fmt.Errorf("parity: rotate threshold %g outside (0,1)", c.RotateFreeFraction)
	}
	if c.ParityChunkStripes <= 0 {
		return fmt.Errorf("parity: non-positive parity chunk %d", c.ParityChunkStripes)
	}
	return nil
}

// RoLo5 applies the RoLo recipe to RAID5: a small write lands as one
// in-place data write plus one sequential append into the on-duty logging
// region (two I/Os instead of RMW's four); the stripe's parity becomes
// stale and is reconstructed later in idle time slots by a background
// sweeper. The logger rotates across the disks' free regions and log
// extents are reclaimed when their stripes' parity is brought current —
// rotated logging and decentralized destaging, transplanted to parity
// redundancy (the paper's Section VII future work).
type RoLo5 struct {
	arr *Array
	cfg RoLo5Config

	spaces []*logspace.Space
	onDuty int

	// staleParity holds stripe-number ranges whose parity is stale;
	// sweepInFlight counts stripes currently being rebuilt (popped from
	// the set but not yet fresh).
	staleParity   intervals.Set
	sweepInFlight int64
	sweeping      bool

	resp metrics.ResponseStats

	rotations     int
	loggedWrites  int64
	directRMW     int64
	paritySweeps  int64
	sweptStripes  int64
	closed        bool
	sweepDeferred bool
}

// NewRoLo5 builds the controller. All disks stay spinning: on a parity
// array there are no redundant mirrors to sleep, so the win is the
// small-write path, not energy.
func NewRoLo5(arr *Array, cfg RoLo5Config) (*RoLo5, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if arr.LogRegionBytes() <= 0 {
		return nil, fmt.Errorf("parity: array has no logging region")
	}
	r := &RoLo5{arr: arr, cfg: cfg}
	for range arr.Disks {
		sp, err := logspace.New(arr.LogRegionBytes())
		if err != nil {
			return nil, err
		}
		r.spaces = append(r.spaces, sp)
	}
	return r, nil
}

// Responses returns response-time statistics.
func (r *RoLo5) Responses() *metrics.ResponseStats { return &r.resp }

// Rotations counts logger rotations.
func (r *RoLo5) Rotations() int { return r.rotations }

// LoggedWrites counts strips that took the two-I/O logged path.
func (r *RoLo5) LoggedWrites() int64 { return r.loggedWrites }

// DirectRMW counts strips that fell back to read-modify-write.
func (r *RoLo5) DirectRMW() int64 { return r.directRMW }

// SweptStripes counts stripes whose parity the background sweeper rebuilt.
func (r *RoLo5) SweptStripes() int64 { return r.sweptStripes }

// StaleParityStripes reports how many stripes currently have stale parity,
// including those a sweep is rebuilding right now.
func (r *RoLo5) StaleParityStripes() int64 { return r.staleParity.Total() + r.sweepInFlight }

// Submit services one logical request.
func (r *RoLo5) Submit(rec trace.Record) error {
	strips, err := r.arr.Geom.Map(rec.Offset, rec.Size)
	if err != nil {
		return fmt.Errorf("rolo5: %w", err)
	}
	arrive := rec.At
	record := func(now sim.Time) { r.resp.AddClass(now-arrive, rec.Op == trace.Write) }
	if rec.Op == trace.Read {
		j := newJoin(len(strips), record)
		for _, s := range strips {
			io := r.arr.DataIO(s.Offset, s.Length, false, false)
			io.OnDone = j.done
			if err := r.arr.Disks[s.Disk].Submit(io); err != nil {
				return fmt.Errorf("rolo5: read: %w", err)
			}
		}
		return nil
	}

	// Writes: in-place data write + sequential log append on the on-duty
	// logger (never the disk holding the data strip — the log copy must
	// survive that disk's failure).
	type placed struct {
		strip Strip
		log   int
		alloc logspace.Alloc
		ok    bool
	}
	plan := make([]placed, len(strips))
	for i, s := range strips {
		lg := r.pickLogger(s.Disk)
		a, ok := logspace.Alloc{}, false
		if lg >= 0 {
			a, ok = r.spaces[lg].Alloc(s.Length, int(s.Stripe))
		}
		plan[i] = placed{strip: s, log: lg, alloc: a, ok: ok}
	}
	ios := 0
	for _, p := range plan {
		if p.ok {
			ios += 2 // data write + log append
		} else {
			ios += 4 // full read-modify-write fallback
		}
	}
	j := newJoin(ios, record)
	for _, p := range plan {
		s := p.strip
		target := r.arr.Disks[s.Disk]
		w := r.arr.DataIO(s.Offset, s.Length, true, false)
		w.OnDone = j.done
		if err := target.Submit(w); err != nil {
			return fmt.Errorf("rolo5: data write: %w", err)
		}
		if p.ok {
			r.loggedWrites++
			lio := r.arr.LogIO(p.alloc.Offset, p.alloc.Length, true, false)
			lio.OnDone = j.done
			if err := r.arr.Disks[p.log].Submit(lio); err != nil {
				return fmt.Errorf("rolo5: log write: %w", err)
			}
			r.staleParity.Add(s.Stripe, s.Stripe+1)
		} else {
			// Logging space exhausted: classic RMW for this strip.
			r.directRMW++
			old := r.arr.DataIO(s.Offset, s.Length, false, false)
			old.OnDone = j.done
			if err := target.Submit(old); err != nil {
				return fmt.Errorf("rolo5: rmw read: %w", err)
			}
			pd := r.arr.Disks[r.arr.Geom.ParityDisk(s.Stripe)]
			pr := r.arr.DataIO(r.arr.Geom.ParityOffset(s.Stripe), s.Length, false, false)
			pr.OnDone = j.done
			if err := pd.Submit(pr); err != nil {
				return fmt.Errorf("rolo5: parity read: %w", err)
			}
			pw := r.arr.DataIO(r.arr.Geom.ParityOffset(s.Stripe), r.arr.Geom.StripUnitBytes, true, false)
			pw.OnDone = j.done
			if err := pd.Submit(pw); err != nil {
				return fmt.Errorf("rolo5: parity write: %w", err)
			}
		}
	}
	r.checkRotation()
	r.kickSweep()
	return nil
}

// pickLogger chooses the logger with the most free space, excluding the
// disk that holds the data strip.
func (r *RoLo5) pickLogger(excludeDisk int) int {
	lg := r.onDuty
	if lg == excludeDisk {
		lg = (lg + 1) % r.arr.Geom.Disks
	}
	if r.spaces[lg].FreeBytes() > 0 {
		return lg
	}
	// Fall back to any disk with room.
	for i := range r.spaces {
		if i != excludeDisk && r.spaces[i].FreeBytes() > 0 {
			return i
		}
	}
	return -1
}

func (r *RoLo5) checkRotation() {
	if r.spaces[r.onDuty].FreeFraction() >= r.cfg.RotateFreeFraction {
		return
	}
	best, bestFree := r.onDuty, r.spaces[r.onDuty].FreeBytes()
	for i, sp := range r.spaces {
		if sp.FreeBytes() > bestFree {
			best, bestFree = i, sp.FreeBytes()
		}
	}
	if best != r.onDuty {
		r.onDuty = best
		r.rotations++
	}
}

// kickSweep starts the background parity reconstruction if stale stripes
// exist. One pass rebuilds up to ParityChunkStripes consecutive stripes:
// it reads every data strip of each stripe (background priority) and
// writes fresh parity, then releases the log extents of those stripes.
func (r *RoLo5) kickSweep() {
	if r.sweeping || r.closed || r.staleParity.Empty() {
		return
	}
	span, ok := r.staleParity.PopFirst(r.cfg.ParityChunkStripes)
	if !ok {
		return
	}
	r.sweeping = true
	r.paritySweeps++
	stripes := span.End - span.Start
	r.sweepInFlight += stripes
	// Per stripe: Disks-1 data reads + 1 parity write.
	total := int(stripes) * r.arr.Geom.Disks
	j := newJoin(total, func(now sim.Time) {
		r.sweptStripes += stripes
		r.sweepInFlight -= stripes
		r.releaseSwept(span)
		r.sweeping = false
		r.kickSweep()
	})
	su := r.arr.Geom.StripUnitBytes
	for st := span.Start; st < span.End; st++ {
		pd := r.arr.Geom.ParityDisk(st)
		for d := 0; d < r.arr.Geom.Disks; d++ {
			if d == pd {
				w := r.arr.DataIO(r.arr.Geom.ParityOffset(st), su, true, true)
				w.OnDone = j.done
				if err := r.arr.Disks[d].Submit(w); err != nil {
					r.sweeping = false
					return
				}
				continue
			}
			rd := r.arr.DataIO(st*su, su, false, true)
			rd.OnDone = j.done
			if err := r.arr.Disks[d].Submit(rd); err != nil {
				r.sweeping = false
				return
			}
		}
	}
}

// releaseSwept reclaims the log extents of stripes whose parity is fresh
// — the per-stripe analogue of RoLo's proactive reclamation.
func (r *RoLo5) releaseSwept(span intervals.Span) {
	for st := span.Start; st < span.End; st++ {
		for _, sp := range r.spaces {
			sp.ReleaseTag(int(st))
		}
	}
}

// Close finalizes the run.
func (r *RoLo5) Close(sim.Time) { r.closed = true }
