package invariant

import (
	"fmt"
	"math"

	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/sim"
)

// diskChecker validates the drive layer: every power-state transition is
// checked against the declared graph the moment it fires (via the disks'
// state-change hooks), and sweeps verify time conservation — per-state
// durations sum to the drive's elapsed lifetime — plus energy and counter
// monotonicity.
type diskChecker struct {
	san   *Sanitizer
	disks []*disk.Disk

	lastEnergy    []float64
	lastSpinUps   []int
	lastSpinDowns []int
	lastIOs       []int64
}

func newDiskChecker(s *Sanitizer, disks []*disk.Disk, forbidSpinDown bool) *diskChecker {
	c := &diskChecker{
		san:           s,
		disks:         disks,
		lastEnergy:    make([]float64, len(disks)),
		lastSpinUps:   make([]int, len(disks)),
		lastSpinDowns: make([]int, len(disks)),
		lastIOs:       make([]int64, len(disks)),
	}
	for _, d := range disks {
		d := d
		d.AddStateChangeHook(func(_ *disk.Disk, from, to disk.PowerState, now sim.Time) {
			if !disk.LegalTransition(from, to) {
				s.Report(Violation{
					Check: "state-machine", At: now,
					Object:   fmt.Sprintf("disk %d", d.ID()),
					Expected: fmt.Sprintf("a declared transition out of %v", from),
					Actual:   fmt.Sprintf("%v -> %v", from, to),
				})
			}
			if forbidSpinDown && to == disk.SpinningDown {
				s.Report(Violation{
					Check: "state-machine", At: now,
					Object:   fmt.Sprintf("disk %d", d.ID()),
					Expected: "no spin-downs (power-unmanaged baseline)",
					Actual:   fmt.Sprintf("%v -> %v", from, to),
				})
			}
		})
	}
	return c
}

func (c *diskChecker) Name() string { return "disk" }

func (c *diskChecker) Event(sim.Time) []Violation { return nil }

func (c *diskChecker) Sweep(now sim.Time) []Violation {
	var out []Violation
	for i, d := range c.disks {
		t := d.Totals()
		bad := func(check, what, expected, actual string) {
			out = append(out, Violation{
				Check: check, At: now,
				Object:   fmt.Sprintf("disk %d %s", d.ID(), what),
				Expected: expected, Actual: actual,
			})
		}

		// Time conservation: the state durations partition [Born, now].
		if elapsed := now - d.Born(); t.StateTime != elapsed {
			bad("time-conservation", "state durations",
				fmt.Sprintf("sum to elapsed %v", elapsed), fmt.Sprintf("%v", t.StateTime))
		}

		// Energy: finite and non-decreasing.
		if math.IsNaN(t.EnergyJ) || math.IsInf(t.EnergyJ, 0) {
			bad("accounting", "energy", "a finite value", fmt.Sprint(t.EnergyJ))
		} else if t.EnergyJ < c.lastEnergy[i] {
			bad("accounting", "energy",
				fmt.Sprintf(">= %g J", c.lastEnergy[i]), fmt.Sprintf("%g J", t.EnergyJ))
		}
		c.lastEnergy[i] = t.EnergyJ

		// Spin cycles and I/O counters never run backwards.
		if t.SpinUps < c.lastSpinUps[i] {
			bad("accounting", "spin-ups", fmt.Sprintf(">= %d", c.lastSpinUps[i]), fmt.Sprint(t.SpinUps))
		}
		if t.SpinDowns < c.lastSpinDowns[i] {
			bad("accounting", "spin-downs", fmt.Sprintf(">= %d", c.lastSpinDowns[i]), fmt.Sprint(t.SpinDowns))
		}
		if t.IOsCompleted < c.lastIOs[i] {
			bad("accounting", "completed IOs", fmt.Sprintf(">= %d", c.lastIOs[i]), fmt.Sprint(t.IOsCompleted))
		}
		c.lastSpinUps[i] = t.SpinUps
		c.lastSpinDowns[i] = t.SpinDowns
		c.lastIOs[i] = t.IOsCompleted
	}
	return out
}
