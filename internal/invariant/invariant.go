// Package invariant implements RoloSan, the repository's opt-in runtime
// sanitizer. It deep-checks the bookkeeping invariants the paper states
// but the simulator otherwise only implicitly maintains:
//
//   - recoverability: every dirty block has a valid source — a healthy
//     primary or a non-reclaimed log copy — under RoLo-P/R/E, GRAID, and
//     RAID10 semantics (Sections III-A/III-C of the paper);
//   - log-space conservation: logspace occupancy counters equal
//     block-level ground truth, every allocation/release/reset passed
//     through an audited mutation helper, and reclaimed tags never hold
//     live blocks (Section III-E's proactive reclamation);
//   - disk state-machine legality and time conservation: every power
//     transition follows the declared graph in internal/disk (the same
//     spec table the statetransition analyzer checks statically) and the
//     per-state durations always sum to the elapsed simulation time;
//   - accounting monotonicity: energy, spin cycles, rotation and destage
//     counters never run backwards.
//
// A Sanitizer installs itself on the simulation engine's event hook:
// cheap checks run after every event, full sweeps run every SweepEvery
// events and once more at the end of the run. The first violation stops
// the engine (fail fast) and surfaces as a structured diagnostic naming
// the scheme, event number, object, and expected-vs-actual values.
package invariant

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/logspace"
	"github.com/rolo-storage/rolo/internal/sim"
)

// Violation is one structured invariant diagnostic.
type Violation struct {
	Scheme   string   // controller under check, e.g. "RoLo-P"
	Check    string   // invariant family, e.g. "recoverability"
	Event    uint64   // engine event count when detected
	At       sim.Time // simulation time when detected
	Object   string   // what the invariant is about, e.g. "pair 3"
	Expected string
	Actual   string
}

// Error renders the violation as a single diagnostic line.
func (v Violation) Error() string {
	return fmt.Sprintf("rolosan: %s: %s violated at %v (event %d): %s: expected %s, actual %s",
		v.Scheme, v.Check, v.At, v.Event, v.Object, v.Expected, v.Actual)
}

// A Checker validates one invariant family. Event runs after every
// simulation event and must be cheap; Sweep runs every SweepEvery events
// and at the end of the run and may walk full data structures. Both
// return the violations found (nil when clean).
type Checker interface {
	Name() string
	Event(now sim.Time) []Violation
	Sweep(now sim.Time) []Violation
}

// Counters is the cheap per-event snapshot a controller exposes for
// monotonicity checking. A controller keeps DirtyBytes and LogUsed as
// running totals; sweeps check them against the State's walked sums.
type Counters struct {
	Rotations  int
	Destages   int
	DirtyBytes int64 // total stale bytes awaiting destage
	LogUsed    int64 // total live log bytes
}

// State is the full controller snapshot a Source exposes for sweeps.
// Slices indexed by pair must have length Pairs.
type State struct {
	Scheme string
	Pairs  int

	// Spaces are the live logspace allocators (any number; the sweep
	// validates each one's internal bookkeeping and audit ledger).
	Spaces []*logspace.Space

	// DirtyBytes[p] is the number of pair-p bytes whose redundancy
	// currently depends on the log (RoLo-P/R: mirror stale; RoLo-E: only
	// current copy is logged; GRAID: mirror stale).
	DirtyBytes []int64

	// LogByPair[p] is the number of live log bytes tagged for pair p,
	// summed over all Spaces. Nil when log extents are not pair-tagged
	// (GRAID tags by destage generation); then LogTotal is checked in
	// aggregate instead.
	LogByPair []int64

	// LogTotal is the total live log bytes across all Spaces.
	LogTotal int64

	// LogPrimaryBacked is true when a healthy primary also holds the
	// current data for dirty spans (RoLo-P/R, GRAID), so losing the log
	// copies is survivable while the primary lives. False for RoLo-E,
	// where the log holds the only current copy.
	LogPrimaryBacked bool

	// PrimaryOK[p] reports pair p's primary health. A nil slice means
	// "all healthy".
	PrimaryOK []bool

	// LogDown reports that a dedicated log device has failed (GRAID):
	// logged redundancy is knowingly exposed until replacement, so the
	// aggregate log check is suspended.
	LogDown bool

	// Counters are the running totals, which must equal LogTotal and the
	// sum of DirtyBytes.
	Counters
}

// A Source is a controller that can snapshot itself for the sanitizer.
type Source interface {
	SanitizerState() State
	SanitizerCounters() Counters
}

// An Attachable is a controller that accepts an audit handle; its audited
// mutation helpers notify the handle so the sanitizer's ledger tracks
// every log-space mutation.
type Attachable interface {
	SetSanitizer(*Audit)
}

func (s State) primaryOK(p int) bool { return s.PrimaryOK == nil || s.PrimaryOK[p] }
