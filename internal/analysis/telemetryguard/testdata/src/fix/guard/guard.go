// Package guard exercises the telemetryguard analyzer: guarded and
// unguarded Recorder emissions.
package guard

import "github.com/rolo-storage/rolo/internal/telemetry"

type controller struct {
	tel *telemetry.Recorder
}

type engine struct{}

func (engine) After(d int64, fn func(now int64)) {}

func unguarded(c *controller) {
	c.tel.Emit(telemetry.Event{At: 1}) // want `unguarded telemetry emission c\.tel\.Emit`
	c.tel.CacheHit(0, -1, 512)         // want `unguarded telemetry emission c\.tel\.CacheHit`
	_ = c.tel.Enabled()                // the guard method itself is fine
}

func guardedIf(c *controller) {
	if c.tel != nil {
		c.tel.Emit(telemetry.Event{At: 1}) // guarded: fine
	}
	if nil != c.tel {
		c.tel.CacheHit(0, -1, 1) // reversed operands: fine
	}
	if c.tel != nil && true {
		c.tel.Emit(telemetry.Event{}) // conjunction keeps the guard: fine
	}
}

func guardedEnabled(c *controller) {
	if c.tel.Enabled() {
		c.tel.Emit(telemetry.Event{At: 2}) // Enabled() implies non-nil: fine
	}
}

func guardedEarlyReturn(c *controller) {
	if c.tel == nil {
		return
	}
	c.tel.RequestDone(5, false, 512, 7) // dominated by the early return: fine
}

func guardedElse(c *controller) {
	if c.tel == nil {
		_ = c
	} else {
		c.tel.Emit(telemetry.Event{}) // else-branch of a nil check: fine
	}
}

func wrongGuard(c *controller, other *controller) {
	if other.tel != nil {
		c.tel.Emit(telemetry.Event{}) // want `unguarded telemetry emission c\.tel\.Emit`
	}
	if c.tel == nil {
		c.tel.Emit(telemetry.Event{}) // want `unguarded telemetry emission c\.tel\.Emit`
	}
}

func closureUnderGuard(c *controller, eng engine) {
	if c.tel != nil {
		// The recorder is wired once before the run; a closure scheduled
		// under the guard still sees a non-nil recorder when it fires.
		eng.After(3, func(now int64) {
			c.tel.RequestDone(now, true, 512, 9) // fine
		})
	}
	eng.After(4, func(now int64) {
		c.tel.RequestDone(now, true, 512, 9) // want `unguarded telemetry emission c\.tel\.RequestDone`
	})
}

func allowed(c *controller) {
	c.tel.Emit(telemetry.Event{}) //lint:allow telemetryguard:unguarded cold path, runs once per report
}
