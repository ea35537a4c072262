package array

import (
	"errors"

	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/sim"
)

// SpinDownRetry is how long a deferred spin-down waits before retrying.
const SpinDownRetry = sim.Second

// SpinDownWhenIdle spins d down as soon as it drains. If the disk is busy
// the attempt is retried after SpinDownRetry. Retries stop when the disk
// meanwhile entered Standby (already down) or SpinningUp (someone needs it
// again), or when the should predicate (if non-nil) reports false —
// callers use it to abandon the spin-down when the disk's role changes
// (e.g. it became the on-duty logger again). The predicate guarantee matters: without it a
// busy disk would be retried forever and the event loop would never drain.
func SpinDownWhenIdle(eng *sim.Engine, d *disk.Disk, should func() bool) {
	if should != nil && !should() {
		return
	}
	switch d.State() {
	case disk.Standby, disk.SpinningDown, disk.SpinningUp:
		return
	}
	err := d.SpinDown()
	if err == nil {
		return
	}
	if errors.Is(err, disk.ErrBusy) || errors.Is(err, disk.ErrBadState) {
		eng.After(SpinDownRetry, func(sim.Time) { SpinDownWhenIdle(eng, d, should) })
	}
}
