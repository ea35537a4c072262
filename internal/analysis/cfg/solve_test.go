package cfg

// Solver edge cases the lock and resource dataflows lean on:
// panic-terminated paths, loops with no exit (whose exit blocks must stay
// unreached rather than absorb a zero-value set), labeled break/continue
// across nested loops, range-over-int loops, and fallthrough-merged
// switch cases.

import (
	"testing"
)

func TestPanicTerminatesPath(t *testing.T) {
	// The then-branch panics, so only the x != A edge reaches the probe:
	// without panic termination the probe would see the full set.
	g := buildFunc(t, `
		if x == A {
			panic("A is fatal")
		}
		probe()
	`)
	if g.Unanalyzable {
		t.Fatalf("unanalyzable: %s", g.Reason)
	}
	want(t, probeSets(t, g), Full(3).Without(0))
}

func TestUnreachableAfterPanic(t *testing.T) {
	// Statements after an unconditional panic are unreachable: they land
	// in no block, so the analysis never visits them.
	g := buildFunc(t, `
		panic("gone")
		x = A
		probe()
	`)
	if g.Unanalyzable {
		t.Fatalf("unanalyzable: %s", g.Reason)
	}
	if got := probeSets(t, g); len(got) != 0 {
		t.Fatalf("probe after panic was reached: sets %v", got)
	}
}

func TestForeverLoopExitUnreached(t *testing.T) {
	// `for {}` has no exit edge. The block after the loop exists
	// structurally but must not appear in the solution — a may-analysis
	// that handed it the zero-value set would claim "no value possible",
	// which downstream code could misread as proof.
	g := buildFunc(t, `
		x = A
		for {
			probe()
			x = B
		}
		probe()
	`)
	if g.Unanalyzable {
		t.Fatalf("unanalyzable: %s", g.Reason)
	}
	in := g.Solve(Full(3), transfer, refine)
	reached := 0
	for _, blk := range g.Blocks {
		if _, ok := in[blk]; ok {
			reached++
		}
	}
	if reached == len(g.Blocks) {
		t.Fatalf("all %d blocks reached; the loop exit should be unreachable", len(g.Blocks))
	}
	// The in-loop probe sees both the initial A and the back-edge B.
	want(t, probeSets(t, g), Only(0).With(1), Set(0))
}

func TestForeverLoopWithBreakReachesExit(t *testing.T) {
	g := buildFunc(t, `
		x = A
		for {
			if x == A {
				x = B
				break
			}
			x = C
		}
		probe()
	`)
	if g.Unanalyzable {
		t.Fatalf("unanalyzable: %s", g.Reason)
	}
	// Only the break path leaves the loop, carrying x == B.
	want(t, probeSets(t, g), Only(1))
}

func TestLabeledBreakCrossesNestedLoops(t *testing.T) {
	// `break L` from the inner loop exits the outer loop directly: the
	// probe must see only the state at the break, never the inner loop's
	// other assignments: the edge must land on the outer exit block.
	g := buildFunc(t, `
		x = A
	L:
		for {
			for {
				x = B
				break L
			}
		}
		probe()
	`)
	if g.Unanalyzable {
		t.Fatalf("unanalyzable: %s", g.Reason)
	}
	want(t, probeSets(t, g), Only(1))
}

func TestLabeledContinueCrossesNestedLoops(t *testing.T) {
	// `continue L` restarts the outer loop from inside the inner one; the
	// outer head therefore joins the entry state with the continue state,
	// and the only way out is the labeled break with x == B.
	g := buildFunc(t, `
		x = A
	L:
		for {
			for {
				if x == A {
					x = B
					continue L
				}
				break L
			}
		}
		probe()
	`)
	if g.Unanalyzable {
		t.Fatalf("unanalyzable: %s", g.Reason)
	}
	want(t, probeSets(t, g), Only(1))
}

func TestLabeledSwitchBreakInLoop(t *testing.T) {
	// The lockdep-style scan idiom: a labeled break on the *switch* label
	// leaves the switch only; the loop keeps spinning until the loop-level
	// labeled break fires. Here `break L` names the loop, so the case-A
	// edge is the only loop exit.
	g := buildFunc(t, `
		x = B
	L:
		for {
			switch x {
			case A:
				break L
			}
			x = A
		}
		probe()
	`)
	if g.Unanalyzable {
		t.Fatalf("unanalyzable: %s", g.Reason)
	}
	want(t, probeSets(t, g), Only(0))
}

func TestRangeOverInt(t *testing.T) {
	// go1.22 range-over-int builds the same head/body/exit shape as any
	// range loop: zero iterations are possible, so the exit joins the
	// pre-loop state with the body's.
	g := buildFunc(t, `
		x = C
		for range 3 {
			x = A
		}
		probe()
	`)
	if g.Unanalyzable {
		t.Fatalf("unanalyzable: %s", g.Reason)
	}
	want(t, probeSets(t, g), Only(0).With(2))
}

func TestFallthroughMergesStates(t *testing.T) {
	// A fallthrough body is a second predecessor of the next case: the
	// probe joins the fallen-through {C} with the direct-dispatch {B} —
	// exactly the φ a value-flow analysis must place there.
	g := buildFunc(t, `
		switch x {
		case A:
			x = C
			fallthrough
		case B:
			probe()
		}
	`)
	if g.Unanalyzable {
		t.Fatalf("unanalyzable: %s", g.Reason)
	}
	want(t, probeSets(t, g), Only(1).With(2))
}

func TestPanicInsideBranchKeepsOtherPaths(t *testing.T) {
	// A switch where one case panics: the probe merges only the
	// surviving cases.
	g := buildFunc(t, `
		switch x {
		case A:
			panic("no A")
		case B:
			probe()
		}
		probe()
	`)
	if g.Unanalyzable {
		t.Fatalf("unanalyzable: %s", g.Reason)
	}
	// First probe: inside case B. Second: B's fallout plus the default
	// (x not in {A, B}) dispatch edge — everything but A.
	want(t, probeSets(t, g), Only(1), Full(3).Without(0))
}
