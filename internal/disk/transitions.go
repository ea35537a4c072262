package disk

// powerGraph declares the legal edges of the drive power-state machine.
// This is the single spec table shared by the runtime sanitizer
// (internal/invariant validates every observed transition against it) and
// the statetransition static analyzer (which validates every setState call
// site against it at vet time), so the declared graph cannot drift from
// the enforced one.
//
// The graph mirrors Section II of the paper: a drive services I/O only
// while spinning (ACTIVE/IDLE), reaches STANDBY exclusively through a
// spin-down transition, and returns to service exclusively through a
// spin-up transition. There are no shortcut edges: ACTIVE never spins
// down directly (the controller must drain to IDLE first), and a
// spin-down cannot be aborted mid-flight.
var powerGraph = map[PowerState][]PowerState{
	Active:       {Idle},
	Idle:         {Active, SpinningDown},
	SpinningDown: {Standby},
	Standby:      {SpinningUp},
	SpinningUp:   {Idle},
}

// legalEdge[from][to] is powerGraph as a table, built once at init, so
// that the sanitizer's check of every state change is one indexed load.
var legalEdge = func() (t [numPowerStates][numPowerStates]bool) {
	for from, tos := range powerGraph {
		for _, to := range tos {
			t[from][to] = true
		}
	}
	return t
}()

// LegalTransition reports whether from -> to is a declared edge of the
// power-state graph. Self-transitions are legal no-ops (setState ignores
// them before any accounting happens).
func LegalTransition(from, to PowerState) bool {
	if from == to {
		return true
	}
	return uint(from) < uint(numPowerStates) && uint(to) < uint(numPowerStates) && legalEdge[from][to]
}
