// Package baseline implements the two comparison schemes of the RoLo
// paper: a standard RAID10 array (all disks always spinning) and GRAID
// (MASCOTS'08), the centralized-logging RAID10 with one dedicated log disk
// and threshold-triggered destaging.
package baseline

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/metrics"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/trace"
)

// RAID10 services reads from the less-loaded copy and writes to both disks
// of each pair. No disk ever spins down.
type RAID10 struct {
	arr  *array.Array
	reqs array.Requests
	tel  *telemetry.Recorder
	exts []raid.Extent // Submit's extent scratch, reused per request
}

var (
	_ array.Controller       = (*RAID10)(nil)
	_ telemetry.Instrumented = (*RAID10)(nil)
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
func (c *RAID10) SetTelemetry(rec *telemetry.Recorder) {
	c.tel = rec
	c.reqs.SetTelemetry(rec)
}

// Submit implements array.Controller.
func (c *RAID10) Submit(rec trace.Record) error {
	exts, err := c.arr.Geom.AppendExtents(c.exts[:0], rec.Offset, rec.Size)
	if err != nil {
		return fmt.Errorf("raid10: %w", err)
	}
	c.exts = exts
	if c.tel != nil {
		c.tel.RequestStart(rec.At, rec.Op == trace.Write, rec.Size)
	}
	switch rec.Op {
	case trace.Write:
		req := c.reqs.Start(rec, 2*len(exts))
		for _, e := range exts {
			for _, d := range [...]int{0, 1} {
				io := c.arr.DataIO(e.Offset, e.Length, true, false)
				io.OnDone = req.Done
				target := c.arr.Primaries[e.Pair]
				if d == 1 {
					target = c.arr.Mirrors[e.Pair]
				}
				if err := target.Submit(io); err != nil {
					return fmt.Errorf("raid10: write pair %d: %w", e.Pair, err)
				}
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
