// Package core implements the RoLo rotated-logging architecture — the
// primary contribution of the paper. RoLo pools the free space of the
// mirrored disks into a rotating logical logging space: one mirror
// (RoLo-P) or one mirrored pair (RoLo-R) serves as the on-duty logger while
// off-duty mirrors sleep. Each rotation triggers a decentralized destage
// for the newly on-duty pair, executed at background priority in the idle
// time slots between foreground requests; completed destages invalidate the
// corresponding log extents on every logger, proactively reclaiming space
// so the logger can rotate indefinitely. RoLo-E (see roloe.go) instead
// spins everything down except one on-duty pair that absorbs all writes and
// caches popular reads.
package core

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/invariant"
	"github.com/rolo-storage/rolo/internal/logspace"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/trace"
)

// Flavor selects the RoLo variant.
type Flavor int

// The three RoLo flavors from Section III-B of the paper.
const (
	FlavorP Flavor = iota + 1 // performance-oriented: one mirror logs, 2 copies
	FlavorR                   // reliability-oriented: one pair logs, 3 copies
	FlavorE                   // energy-oriented: one pair up, everything else asleep
)

// String returns the flavor name.
func (f Flavor) String() string {
	switch f {
	case FlavorP:
		return "RoLo-P"
	case FlavorR:
		return "RoLo-R"
	case FlavorE:
		return "RoLo-E"
	default:
		return fmt.Sprintf("Flavor(%d)", int(f))
	}
}

// Config parameterizes the RoLo controllers.
type Config struct {
	// RotateFreeFraction rotates the logger when its free fraction drops
	// below this value.
	RotateFreeFraction float64
	// SpinUpLeadFreeFraction starts spinning up the next logger when the
	// on-duty free fraction drops below this value, hiding the ~11 s
	// spin-up latency.
	SpinUpLeadFreeFraction float64
	// DeactivateFreeFraction: if every logger's free fraction is below
	// this, RoLo is deactivated for the request and writes go directly to
	// the mirrors (Section III-E's 5% rule).
	DeactivateFreeFraction float64
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		RotateFreeFraction:     0.10,
		SpinUpLeadFreeFraction: 0.20,
		DeactivateFreeFraction: 0.05,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.RotateFreeFraction <= 0 || c.RotateFreeFraction >= 1:
		return fmt.Errorf("core: rotate threshold %g outside (0,1)", c.RotateFreeFraction)
	case c.SpinUpLeadFreeFraction < c.RotateFreeFraction || c.SpinUpLeadFreeFraction >= 1:
		return fmt.Errorf("core: spin-up lead %g must be in [rotate threshold, 1)", c.SpinUpLeadFreeFraction)
	case c.DeactivateFreeFraction < 0 || c.DeactivateFreeFraction > c.RotateFreeFraction:
		return fmt.Errorf("core: deactivate threshold %g outside [0, rotate threshold]", c.DeactivateFreeFraction)
	}
	return nil
}

// RoLo is the RoLo-P / RoLo-R controller. Its log has one space per
// mirror (P) or per pair (R; the pair's two disks hold identical log
// contents, so one allocator covers both), tagged by pair and backed by
// the always-spinning primaries. Pair p's dirt doubles as its destage
// work queue.
type RoLo struct {
	*array.Logged

	arr    *array.Array
	cfg    Config
	flavor Flavor

	onDuty      int             // on-duty logger index, or -1 while logging is deactivated
	spinningUp  int             // logger index being woken ahead of rotation, or -1
	destagers   []*array.Copier // per pair; nil when no destage ever started
	destageLive []bool          // destage in progress for pair p

	// Per-Submit scratch buffers. Submit builds its placement and target
	// lists, hands them to synchronous consumers and returns, so the
	// backing arrays are reused across requests (DESIGN §11). The
	// simulation is single-threaded per engine, so no locking is needed.
	allocScratch  []logspace.Alloc
	targetScratch []targetIO
}

var (
	_ array.Controller       = (*RoLo)(nil)
	_ telemetry.Instrumented = (*RoLo)(nil)
	_ telemetry.GaugeSource  = (*RoLo)(nil)
	_ invariant.Attachable   = (*RoLo)(nil)
)

// New builds a RoLo-P or RoLo-R controller over the array. Logger 0 starts
// on duty; all other mirrors are placed in Standby. The per-logger space
// is the array's per-disk logging region.
func New(arr *array.Array, flavor Flavor, cfg Config) (*RoLo, error) {
	if flavor != FlavorP && flavor != FlavorR {
		return nil, fmt.Errorf("core: New handles RoLo-P/R; use NewE for %v", flavor)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if arr.LogRegionBytes() <= 0 {
		return nil, fmt.Errorf("core: array has no logging region (disk %d bytes, data %d bytes)",
			arr.DiskCfg.CapacityBytes, arr.Geom.DataBytesPerDisk)
	}
	if arr.Geom.Pairs < 2 {
		return nil, fmt.Errorf("core: rotation needs >= 2 pairs, have %d", arr.Geom.Pairs)
	}
	lg, err := array.NewLogged(arr, array.LogLayout{
		Scheme: flavor.String(), Spaces: arr.Geom.Pairs, SpaceBytes: arr.LogRegionBytes(),
		PrimaryBacked: true,
	})
	if err != nil {
		return nil, err
	}
	r := &RoLo{
		Logged:      lg,
		arr:         arr,
		cfg:         cfg,
		flavor:      flavor,
		destagers:   make([]*array.Copier, arr.Geom.Pairs),
		destageLive: make([]bool, arr.Geom.Pairs),
		spinningUp:  -1,
	}
	for i, m := range arr.Mirrors {
		if i == r.onDuty {
			continue
		}
		if err := m.ForceState(disk.Standby); err != nil {
			return nil, fmt.Errorf("core: init mirror %d: %w", i, err)
		}
	}
	return r, nil
}

// OnDuty returns the on-duty logger index, or -1 when logging is
// deactivated.
func (r *RoLo) OnDuty() int { return r.onDuty }

// Submit implements array.Controller.
func (r *RoLo) Submit(rec trace.Record) error {
	exts, err := r.Reqs.Arrive(r.arr.Geom, rec)
	if err != nil {
		return fmt.Errorf("%v: %w", r.flavor, err)
	}
	if rec.Op == trace.Read {
		req := r.Reqs.Start(rec, len(exts))
		for _, e := range exts {
			io := r.arr.DataIO(e.Offset, e.Length, false, false)
			io.OnDone = req.Done
			// Primaries are always spinning in RoLo-P/R; mirrors are
			// mostly asleep or stale, so reads go to the primary. A
			// failed primary degrades to its mirror, which wakes
			// "silently" (Section III-C).
			target := r.arr.Primaries[e.Pair]
			if target.Failed() {
				target = r.arr.Mirrors[e.Pair]
			}
			if err := target.Submit(io); err != nil {
				return fmt.Errorf("%v: read: %w", r.flavor, err)
			}
		}
		return nil
	}

	// Write path: one copy to the primary's data region, plus one (P) or
	// two (R) sequential copies into the on-duty logging space.
	lg := r.onDuty
	if lg < 0 {
		// Logging deactivated (on-duty failure with no viable successor).
		err := r.directWrite(rec, exts)
		r.reactivate()
		return err
	}
	logCopies := 1
	if r.flavor == FlavorR {
		logCopies = 2
	}
	allocs := r.allocScratch[:0]
	allOK := true
	for _, e := range exts {
		a, ok := r.Alloc(lg, e.Length, e.Pair)
		if !ok {
			allOK = false
			break
		}
		allocs = append(allocs, a)
	}
	r.allocScratch = allocs[:0]
	if !allOK {
		// Partial allocations stay tagged and are reclaimed with their
		// pair's next destage; they only waste a little space. Fall back
		// to direct mirrored writes for the whole request, and push the
		// rotation machinery so the logger moves on.
		err := r.directWrite(rec, exts)
		r.checkRotation()
		return err
	}

	targets := r.targetScratch[:0]
	for i, e := range exts {
		prim := r.arr.Primaries[e.Pair]
		if prim.Failed() {
			// Degraded: the in-place copy goes to the mirror, which then
			// holds current data for this span.
			targets = append(targets, targetIO{
				disk: r.arr.Mirrors[e.Pair],
				io:   r.arr.DataIO(e.Offset, e.Length, true, false),
			})
			r.CleanDirty(e.Pair, e.Offset, e.Offset+e.Length)
		} else {
			targets = append(targets, targetIO{
				disk: prim,
				io:   r.arr.DataIO(e.Offset, e.Length, true, false),
			})
			r.markDirty(e.Pair, e.Offset, e.Offset+e.Length)
		}
		for c := 0; c < logCopies; c++ {
			target := r.arr.Mirrors[lg]
			if c == 1 {
				target = r.arr.Primaries[lg]
			} else if st := target.State(); st == disk.SpinningUp || st == disk.Standby {
				// Non-interrupted logging service (Section III-D): while a
				// freshly promoted logger is still waking — an emergency
				// failover is the only way an on-duty mirror can be cold —
				// the second copy lands in the log region of the logger
				// pair's primary, which is always spinning.
				if p := r.arr.Primaries[lg]; !p.Failed() {
					target = p
				}
			}
			targets = append(targets, targetIO{
				disk: target,
				io:   r.arr.LogIO(allocs[i].Offset, allocs[i].Length, true, false),
			})
		}
	}
	r.targetScratch = targets[:0]
	if err := r.submitSurviving(rec, targets); err != nil {
		return err
	}
	r.checkRotation()
	return nil
}

// reactivate re-enables logging after deactivation once reclamation frees
// a viable logger (Section III-E).
func (r *RoLo) reactivate() {
	if r.onDuty >= 0 {
		return
	}
	next := r.pickNext()
	if next < 0 {
		return
	}
	r.onDuty = next
	r.Rotated(r.arr.Eng.Now(), next)
	_ = r.arr.Mirrors[next].SpinUp()
	r.startDestage(next)
}

// markDirty records staleness and feeds the live destager if pair p is
// currently being destaged.
func (r *RoLo) markDirty(p int, start, end int64) {
	r.MarkDirty(p, start, end)
	if r.destageLive[p] && r.destagers[p] != nil {
		r.destagers[p].Kick()
	}
}

// directWrite is the deactivation fallback: write both copies in place,
// waking the target mirrors if needed (Section III-E).
func (r *RoLo) directWrite(rec trace.Record, exts []raid.Extent) error {
	r.Bypassed()
	targets := r.targetScratch[:0]
	for _, e := range exts {
		for _, mirror := range [...]bool{false, true} {
			target := r.arr.Primaries[e.Pair]
			if mirror {
				target = r.arr.Mirrors[e.Pair]
			}
			targets = append(targets, targetIO{
				disk: target,
				io:   r.arr.DataIO(e.Offset, e.Length, true, false),
			})
		}
		// The surviving mirror copy is now current for this span.
		if !r.arr.Mirrors[e.Pair].Failed() {
			r.CleanDirty(e.Pair, e.Offset, e.Offset+e.Length)
		}
	}
	r.targetScratch = targets[:0]
	return r.submitSurviving(rec, targets)
}

// checkRotation wakes the next logger ahead of time and rotates the
// on-duty logger when it is nearly exhausted.
func (r *RoLo) checkRotation() {
	r.reactivate()
	if r.onDuty < 0 {
		return
	}
	free := r.FreeFraction(r.onDuty)
	if free >= r.cfg.SpinUpLeadFreeFraction {
		return
	}
	if r.spinningUp == -1 {
		if next := r.pickNext(); next >= 0 {
			r.spinningUp = next
			// Wake the mirror of the candidate logger; its primary
			// (needed by RoLo-R) is always up.
			_ = r.arr.Mirrors[next].SpinUp()
		}
	}
	if free >= r.cfg.RotateFreeFraction {
		return
	}
	if r.spinningUp < 0 {
		return
	}
	switch r.arr.Mirrors[r.spinningUp].State() {
	case disk.Idle, disk.Active:
		r.rotate(r.spinningUp)
	case disk.Standby:
		// A racing spin-down beat the wake-up; try again.
		_ = r.arr.Mirrors[r.spinningUp].SpinUp()
	}
}

// pickNext selects the off-duty logger with the most reclaimed space,
// requiring it to beat the deactivation threshold.
func (r *RoLo) pickNext() int {
	best, bestFree := -1, int64(-1)
	for i, m := range r.arr.Mirrors {
		if i == r.onDuty || i == r.spinningUp || m.Failed() {
			continue
		}
		if f := r.FreeBytes(i); f > bestFree {
			best, bestFree = i, f
		}
	}
	if best >= 0 && r.FreeFraction(best) <= r.cfg.DeactivateFreeFraction {
		return -1
	}
	return best
}

// rotate hands duty to logger `next` and triggers the decentralized
// destage for the newly on-duty pair.
func (r *RoLo) rotate(next int) {
	prev := r.onDuty
	r.onDuty = next
	r.spinningUp = -1
	r.Rotated(r.arr.Eng.Now(), next)
	r.startDestage(next)

	// The previous logger spins down once the destage that writes to it
	// (its own pair's) finishes and it has drained.
	r.maybeSleepMirror(prev)
}

// startDestage begins (or resumes) the background destage for pair p: its
// stale spans are copied from its primary to its mirror in idle time slots.
// A pair with a failed disk cannot destage; its dirt waits for Rebuild.
func (r *RoLo) startDestage(p int) {
	if r.destageLive[p] || r.arr.Primaries[p].Failed() || r.arr.Mirrors[p].Failed() {
		return
	}
	r.destageLive[p] = true
	if r.Tel != nil {
		r.Tel.DestageStart(r.arr.Eng.Now(), p)
	}
	if r.destagers[p] == nil {
		r.destagers[p] = r.Destager(p)
		r.destagers[p].OnDrained = func(at sim.Time) { r.destageDrained(p, at) }
	}
	r.destagers[p].Kick()
}

// destageDrained fires when pair p's dirty set empties: every logged copy
// written on behalf of pair p is now stale, so its extents are reclaimed on
// every logger (the proactive reclamation of Section III-A).
func (r *RoLo) destageDrained(p int, at sim.Time) {
	if !r.destageLive[p] {
		return
	}
	r.destageLive[p] = false
	if r.Tel != nil {
		r.Tel.DestageDone(at, p)
	}
	if freed := r.ReleaseTag(p); r.Tel != nil && freed > 0 {
		r.Tel.LogInvalidate(at, p, freed)
	}
	r.maybeSleepMirror(p)
}

// maybeSleepMirror spins down mirror m when it is off-duty and its pair's
// destage has completed.
func (r *RoLo) maybeSleepMirror(m int) {
	if m == r.onDuty || m == r.spinningUp || r.destageLive[m] {
		return
	}
	array.SpinDownWhenIdle(r.arr.Eng, r.arr.Mirrors[m], func() bool {
		return m != r.onDuty && m != r.spinningUp && !r.destageLive[m] && !r.Closed()
	})
}

// CheckErr returns the first destager addressing error, if any. Tests call
// this to assert the run was internally consistent.
func (r *RoLo) CheckErr() error {
	for p, cp := range r.destagers {
		if cp != nil && cp.Err() != nil {
			return fmt.Errorf("%v: destager %d: %w", r.flavor, p, cp.Err())
		}
	}
	return nil
}
