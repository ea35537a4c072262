package core

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/intervals"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

// This file implements Section III-C of the paper: disk failure recovery.
// When a disk fails, only the disks essential for data recovery are spun
// up; the failure of an on-duty logger triggers an immediate rotation so
// the logging service never stops (Section III-D's "elimination of single
// point of failure").

// RecoveryPlan describes the actions taken on a failure.
type RecoveryPlan struct {
	// Failed names the failed disk ("P3", "M0").
	Failed string
	// SpunUp lists the mirror indices that were woken for recovery
	// (disks already spinning are not listed).
	SpunUp []int
	// LogSourceLoggers lists loggers holding live log extents needed to
	// reconstruct recent writes of the failed disk's pair.
	LogSourceLoggers []int
	// RebuildBytes is the pair's data region plus, after a primary
	// failure, the live log bytes tagged for the pair. Rebuild copies only
	// the data region and reads none of those log bytes; ROADMAP item 5
	// (failures through one fault interface) makes it read them.
	RebuildBytes int64
	// NewOnDuty is the logger that took over if the on-duty logger
	// failed, else -1.
	NewOnDuty int
}

// FailMirror simulates the failure of mirror m. If m is on duty, the
// logger rotates to the best candidate immediately; the recovery source is
// the pair's primary, which is always spinning in RoLo-P/R.
func (r *RoLo) FailMirror(m int) (RecoveryPlan, error) {
	if m < 0 || m >= r.arr.Geom.Pairs {
		return RecoveryPlan{}, fmt.Errorf("%v: mirror %d outside [0,%d)", r.flavor, m, r.arr.Geom.Pairs)
	}
	d := r.arr.Mirrors[m]
	if d.Failed() {
		return RecoveryPlan{}, fmt.Errorf("%v: mirror %d already failed", r.flavor, m)
	}
	d.Fail()
	plan := RecoveryPlan{Failed: fmt.Sprintf("M%d", m), NewOnDuty: -1}

	if r.destageLive[m] {
		// The destage writing to this mirror can no longer proceed; its
		// dirty spans survive and will be rebuilt onto the replacement.
		r.destageLive[m] = false
	}
	if r.spinningUp == m {
		// The logger woken ahead of rotation is gone; the next rotation
		// check picks another.
		r.spinningUp = -1
	}
	if r.onDuty == m {
		// Non-interrupted logging: hand duty at once to the logger woken
		// ahead of rotation, which is viable (off-duty loggers only gain
		// space), or else to the next viable logger. Log extents on the
		// failed mirror are gone; the data they protected is still safe
		// on the primaries, so the corresponding pairs simply stay dirty
		// until their next destage.
		r.ResetSpace(m)
		next := r.spinningUp
		if next < 0 {
			next = r.pickNext()
		}
		if next < 0 {
			// Every viable logger is nearly full: deactivate logging, so
			// writes take the direct path until reclamation frees one.
			r.onDuty = -1
		} else {
			if r.arr.Mirrors[next].State() == disk.Standby {
				_ = r.arr.Mirrors[next].SpinUp()
				plan.SpunUp = append(plan.SpunUp, next)
			}
			// The failed mirror is already down, so rotate's sleep of
			// the outgoing logger is a no-op.
			r.rotate(next)
			plan.NewOnDuty = next
		}
	}
	// Rebuild: the replacement mirror is reconstructed from its primary
	// (data region) — the primary is ACTIVE already, so nothing else is
	// woken.
	plan.RebuildBytes = r.arr.Geom.DataBytesPerDisk
	return plan, nil
}

// FailPrimary simulates the failure of primary p. Its mirror wakes
// "silently"; in addition, every off-duty logger still holding live log
// extents for pair p wakes, because the mirror's data region is stale for
// exactly those extents (the paper: "awaken several other mirrored disks,
// which are the on-duty log disks during the previous several logging
// periods").
func (r *RoLo) FailPrimary(p int) (RecoveryPlan, error) {
	if p < 0 || p >= r.arr.Geom.Pairs {
		return RecoveryPlan{}, fmt.Errorf("%v: primary %d outside [0,%d)", r.flavor, p, r.arr.Geom.Pairs)
	}
	d := r.arr.Primaries[p]
	if d.Failed() {
		return RecoveryPlan{}, fmt.Errorf("%v: primary %d already failed", r.flavor, p)
	}
	d.Fail()
	plan := RecoveryPlan{Failed: fmt.Sprintf("P%d", p), NewOnDuty: -1}

	// A destage sourced from this primary cannot continue.
	if r.destageLive[p] {
		r.destageLive[p] = false
	}
	// Wake the pair's own mirror.
	if r.arr.Mirrors[p].State() == disk.Standby {
		_ = r.arr.Mirrors[p].SpinUp()
		plan.SpunUp = append(plan.SpunUp, p)
	}
	// Wake every logger holding live extents for pair p.
	plan.RebuildBytes = r.arr.Geom.DataBytesPerDisk
	for i, m := range r.arr.Mirrors {
		logged := r.TagBytes(i, p)
		if logged == 0 {
			continue
		}
		plan.LogSourceLoggers = append(plan.LogSourceLoggers, i)
		plan.RebuildBytes += logged
		if m.State() == disk.Standby && !m.Failed() {
			_ = m.SpinUp()
			plan.SpunUp = append(plan.SpunUp, i)
		}
	}
	return plan, nil
}

// Rebuild replaces the failed disk of pair p and copies the surviving
// disk's data region, [0, DataBytesPerDisk), onto it at background
// priority: the mirror is rebuilt from the primary, or vice versa. It
// reads no log extent, so a rebuilt primary misses the pair's writes
// whose newest copy is only on a logger; ROADMAP item 5 (failures through
// one fault interface) makes it copy them. done, if non-nil, runs when
// the copy drains.
func (r *RoLo) Rebuild(p int, mirrorFailed bool, done func(now sim.Time)) error {
	var failed, src *disk.Disk
	if mirrorFailed {
		failed, src = r.arr.Mirrors[p], r.arr.Primaries[p]
	} else {
		failed, src = r.arr.Primaries[p], r.arr.Mirrors[p]
	}
	if !failed.Failed() {
		return fmt.Errorf("%v: pair %d: disk is healthy", r.flavor, p)
	}
	if src.Failed() {
		return fmt.Errorf("%v: pair %d: both disks failed — data loss", r.flavor, p)
	}
	if err := failed.Replace(); err != nil {
		return err
	}
	work := &intervals.Set{}
	work.Add(0, r.arr.Geom.DataBytesPerDisk)
	cp := r.arr.DataCopier(src, failed, work)
	fired := false
	cp.OnDrained = func(at sim.Time) {
		if fired {
			return
		}
		fired = true
		// The rebuilt mirror is current: its pair is clean and any log
		// extents for it are stale.
		if mirrorFailed {
			r.ClearDirty(p)
			r.ReleaseTag(p)
		}
		if done != nil {
			done(at)
		}
	}
	cp.Kick()
	return nil
}

// submitSurviving submits a write's copies to the disks that have not
// failed, joined into rec's completion; copies bound for failed disks are
// dropped, so surviving copies are still written.
func (r *RoLo) submitSurviving(rec trace.Record, ios []targetIO) error {
	// Two passes instead of building a filtered copy: count survivors for
	// the join, then submit them.
	live := 0
	for _, t := range ios {
		if !t.disk.Failed() {
			live++
		}
	}
	if live == 0 {
		return fmt.Errorf("%v: no surviving copy target", r.flavor)
	}
	req := r.Reqs.Start(rec, live)
	for _, t := range ios {
		if t.disk.Failed() {
			t.io.Recycle() // never submitted; return it to the array pool
			continue
		}
		t.io.OnDone = req.Done
		if err := t.disk.Submit(t.io); err != nil {
			return fmt.Errorf("%v: degraded submit: %w", r.flavor, err)
		}
	}
	return nil
}

// targetIO pairs an IO with its destination disk.
type targetIO struct {
	disk *disk.Disk
	io   *disk.IO
}
