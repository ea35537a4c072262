package invariant

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/sim"
)

// DefaultSweepEvery is the default full-sweep period in events. Sweeps
// walk every logspace and disk, so they are amortized over many events;
// per-event checks still run on every event.
const DefaultSweepEvery = 4096

// maxViolations bounds how many violations are retained after the first
// (the engine stops at the first one, but checkers already mid-flight may
// report a few more; keeping them aids diagnosis without unbounded growth).
const maxViolations = 16

// Sanitizer aggregates checkers, drives them from the engine's event
// hook, and fails fast on the first violation by stopping the engine.
type Sanitizer struct {
	scheme string
	eng    *sim.Engine
	every  uint64
	// untilSweep counts down the events left before the next periodic
	// sweep; 0 means periodic sweeps are off.
	untilSweep uint64

	src      Source
	audit    *Audit
	checkers []Checker

	events     uint64
	sweeps     uint64
	violations []Violation
	stopped    bool
}

// New returns a sanitizer for the named scheme bound to the engine.
func New(scheme string, eng *sim.Engine) *Sanitizer {
	s := &Sanitizer{scheme: scheme, eng: eng, every: DefaultSweepEvery, untilSweep: DefaultSweepEvery}
	s.audit = newAudit(s)
	return s
}

// SetSweepEvery overrides the full-sweep period (in events); 0 disables
// periodic sweeps (the final sweep still runs). The next periodic sweep
// comes n events after the call, so set the period before Install.
func (s *Sanitizer) SetSweepEvery(n uint64) { s.every, s.untilSweep = n, n }

// Audit returns the handle audited mutation helpers notify.
func (s *Sanitizer) Audit() *Audit { return s.audit }

// SetSource registers the controller snapshot source and attaches the
// scheme checker (recoverability, conservation, counter monotonicity).
func (s *Sanitizer) SetSource(src Source) {
	s.src = src
	s.Attach(&schemeChecker{san: s, src: src})
}

// Attach adds a checker.
func (s *Sanitizer) Attach(c Checker) { s.checkers = append(s.checkers, c) }

// WatchDisks attaches the disk checker: every power-state transition is
// validated against the declared graph as it happens, and sweeps verify
// time conservation and accounting monotonicity. With forbidSpinDown set
// (the RAID10 baseline), any spin-down attempt is itself a violation.
func (s *Sanitizer) WatchDisks(disks []*disk.Disk, forbidSpinDown bool) {
	s.Attach(newDiskChecker(s, disks, forbidSpinDown))
}

// Install hooks the sanitizer into the engine's event loop.
func (s *Sanitizer) Install() { s.eng.SetEventHook(s.onEvent) }

func (s *Sanitizer) onEvent(now sim.Time) {
	if s.stopped {
		return
	}
	s.events++
	for _, c := range s.checkers {
		s.record(c.Event(now))
	}
	if s.untilSweep > 0 {
		if s.untilSweep--; s.untilSweep == 0 {
			s.untilSweep = s.every
			s.sweep(now)
		}
	}
}

func (s *Sanitizer) sweep(now sim.Time) {
	s.sweeps++
	for _, c := range s.checkers {
		s.record(c.Sweep(now))
		if s.stopped {
			return
		}
	}
}

// Final runs one last full sweep; rolo.Run calls it after the trace has
// drained and the controller closed.
func (s *Sanitizer) Final(now sim.Time) {
	if s.stopped {
		return
	}
	s.sweep(now)
}

// Report records a violation discovered out of band (state-change hooks,
// audit notifications) and stops the engine.
func (s *Sanitizer) Report(v Violation) { s.record([]Violation{v}) }

func (s *Sanitizer) record(vs []Violation) {
	for _, v := range vs {
		if v.Scheme == "" {
			v.Scheme = s.scheme
		}
		v.Event = s.events
		if len(s.violations) < maxViolations {
			s.violations = append(s.violations, v)
		}
		if !s.stopped {
			s.stopped = true
			s.eng.Stop()
		}
	}
}

// Err returns nil when no invariant was violated, else an error carrying
// the first violation's structured diagnostic.
func (s *Sanitizer) Err() error {
	if len(s.violations) == 0 {
		return nil
	}
	first := s.violations[0]
	if len(s.violations) == 1 {
		return first
	}
	return fmt.Errorf("%w (+%d more)", first, len(s.violations)-1)
}

// Violations returns every retained violation, first (= fatal) first.
func (s *Sanitizer) Violations() []Violation {
	return append([]Violation(nil), s.violations...)
}

// Events returns how many simulation events the sanitizer observed.
func (s *Sanitizer) Events() uint64 { return s.events }

// Sweeps returns how many full sweeps ran (including the final one).
func (s *Sanitizer) Sweeps() uint64 { return s.sweeps }
