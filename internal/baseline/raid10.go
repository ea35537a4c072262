// Package baseline implements the two comparison schemes of the RoLo
// paper: a standard RAID10 array (all disks always spinning) and GRAID
// (MASCOTS'08), the centralized-logging RAID10 with one dedicated log disk
// and threshold-triggered destaging.
package baseline

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/invariant"
	"github.com/rolo-storage/rolo/internal/metrics"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/trace"
)

// RAID10 services reads from the less-loaded copy and writes to both disks
// of each pair. No disk ever spins down.
type RAID10 struct {
	arr  *array.Array
	reqs array.Requests
}

var (
	_ array.Controller       = (*RAID10)(nil)
	_ telemetry.Instrumented = (*RAID10)(nil)
	_ invariant.Source       = (*RAID10)(nil)
)

// NewRAID10 returns a RAID10 controller over the array. As in the paper,
// the baseline performs no power management: every disk is kept at ACTIVE
// power for the whole run.
func NewRAID10(arr *array.Array) *RAID10 {
	for _, d := range arr.AllDisks() {
		d.SetAlwaysActive(true)
	}
	return &RAID10{arr: arr}
}

// Responses returns the response-time statistics collected so far.
func (c *RAID10) Responses() *metrics.ResponseStats { return &c.reqs.Resp }

// SetTelemetry implements telemetry.Instrumented.
func (c *RAID10) SetTelemetry(rec *telemetry.Recorder) { c.reqs.SetTelemetry(rec) }

// Submit implements array.Controller.
func (c *RAID10) Submit(rec trace.Record) error {
	exts, err := c.reqs.Arrive(c.arr.Geom, rec)
	if err != nil {
		return fmt.Errorf("raid10: %w", err)
	}
	switch rec.Op {
	case trace.Write:
		req := c.reqs.Start(rec, 2*len(exts))
		for _, e := range exts {
			if err := c.arr.MirroredWrite(e, req.Done); err != nil {
				return fmt.Errorf("raid10: %w", err)
			}
		}
	case trace.Read:
		req := c.reqs.Start(rec, len(exts))
		for _, e := range exts {
			io := c.arr.DataIO(e.Offset, e.Length, false, false)
			io.OnDone = req.Done
			// Read from the shorter queue; ties go to the primary.
			target := c.arr.Primaries[e.Pair]
			if m := c.arr.Mirrors[e.Pair]; m.QueueLen() < target.QueueLen() {
				target = m
			}
			if err := target.Submit(io); err != nil {
				return fmt.Errorf("raid10: read pair %d: %w", e.Pair, err)
			}
		}
	default:
		return fmt.Errorf("raid10: unknown op %v", rec.Op)
	}
	return nil
}

// Close implements array.Controller.
func (c *RAID10) Close(sim.Time) {}

// SanitizerState implements invariant.Source. RAID10 keeps both copies
// current synchronously and has no log, so the snapshot is trivially
// clean; the interesting checks for this baseline live at the disk layer
// (no disk may ever leave ACTIVE/IDLE).
func (c *RAID10) SanitizerState() invariant.State {
	return invariant.State{
		Scheme:           "RAID10",
		Pairs:            c.arr.Geom.Pairs,
		LogPrimaryBacked: true,
	}
}

// SanitizerCounters implements invariant.Source.
func (c *RAID10) SanitizerCounters() invariant.Counters {
	return invariant.Counters{}
}
