package invariant

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/sim"
)

// schemeChecker validates controller-level invariants from Source
// snapshots: per-event counter monotonicity, and at sweeps the
// recoverability rule, log-space conservation via the audit ledger, and
// the controller's running totals against the sums its snapshot walked.
type schemeChecker struct {
	san *Sanitizer
	src Source

	have bool
	last Counters
}

func (c *schemeChecker) Name() string { return "scheme" }

// Event checks accounting monotonicity: rotation and destage counters
// never decrease, occupancy gauges never go negative.
func (c *schemeChecker) Event(now sim.Time) []Violation {
	cur := c.src.SanitizerCounters()
	var out []Violation
	bad := func(object, expected, actual string) {
		out = append(out, Violation{
			Check: "accounting", At: now,
			Object: object, Expected: expected, Actual: actual,
		})
	}
	if c.have {
		if cur.Rotations < c.last.Rotations {
			bad("rotation counter", fmt.Sprintf(">= %d", c.last.Rotations), fmt.Sprint(cur.Rotations))
		}
		if cur.Destages < c.last.Destages {
			bad("destage counter", fmt.Sprintf(">= %d", c.last.Destages), fmt.Sprint(cur.Destages))
		}
	}
	if cur.DirtyBytes < 0 {
		bad("dirty bytes", ">= 0", fmt.Sprint(cur.DirtyBytes))
	}
	if cur.LogUsed < 0 {
		bad("log occupancy", ">= 0", fmt.Sprint(cur.LogUsed))
	}
	c.have = true
	c.last = cur
	return out
}

// Sweep validates the full snapshot.
func (c *schemeChecker) Sweep(now sim.Time) []Violation {
	st := c.src.SanitizerState()
	var out []Violation

	// Log-space conservation: each allocator's internal bookkeeping and
	// its agreement with the audit ledger.
	for _, sp := range st.Spaces {
		for _, v := range c.san.audit.sweepSpace(sp) {
			v.At = now
			out = append(out, v)
		}
	}

	// Recoverability: every dirty byte must have a valid source.
	var dirtyTotal int64
	for p := 0; p < st.Pairs && p < len(st.DirtyBytes); p++ {
		dirty := st.DirtyBytes[p]
		dirtyTotal += dirty
		if dirty == 0 {
			continue
		}
		if st.LogByPair != nil {
			logged := st.LogByPair[p]
			if st.LogPrimaryBacked {
				// RoLo-P/R: the primary holds current data; the log is the
				// redundancy for the stale mirror. Losing both is a
				// genuine double failure — exactly what must be reported.
				if !st.primaryOK(p) && logged < dirty {
					out = append(out, Violation{
						Check: "recoverability", At: now,
						Object:   fmt.Sprintf("pair %d", p),
						Expected: fmt.Sprintf("failed primary backed by >= %d logged bytes", dirty),
						Actual:   fmt.Sprintf("%d logged bytes", logged),
					})
				}
			} else if logged < dirty {
				// RoLo-E: the log holds the only current copy of dirty
				// spans; it must cover them regardless of disk health.
				out = append(out, Violation{
					Check: "recoverability", At: now,
					Object:   fmt.Sprintf("pair %d", p),
					Expected: fmt.Sprintf(">= %d logged bytes covering dirty spans", dirty),
					Actual:   fmt.Sprintf("%d logged bytes", logged),
				})
			}
		}
	}
	// Generation-tagged logs (GRAID): the aggregate log must cover the
	// aggregate dirt while the log device lives.
	if st.LogByPair == nil && !st.LogDown && st.LogTotal < dirtyTotal {
		out = append(out, Violation{
			Check: "recoverability", At: now,
			Object:   "log device",
			Expected: fmt.Sprintf(">= %d logged bytes covering dirty spans", dirtyTotal),
			Actual:   fmt.Sprintf("%d logged bytes", st.LogTotal),
		})
	}
	// Running totals: the counters the controller keeps as it mutates,
	// which the per-event checks read, must equal the sums the snapshot
	// walked.
	if st.Counters.LogUsed != st.LogTotal {
		out = append(out, Violation{
			Check: "accounting", At: now,
			Object:   "log occupancy total",
			Expected: fmt.Sprintf("%d bytes, the sum over the log spaces", st.LogTotal),
			Actual:   fmt.Sprintf("%d bytes kept as a running total", st.Counters.LogUsed),
		})
	}
	if st.Counters.DirtyBytes != dirtyTotal {
		out = append(out, Violation{
			Check: "accounting", At: now,
			Object:   "dirty bytes total",
			Expected: fmt.Sprintf("%d bytes, the sum over the pairs", dirtyTotal),
			Actual:   fmt.Sprintf("%d bytes kept as a running total", st.Counters.DirtyBytes),
		})
	}
	return out
}
