package experiments

import (
	"fmt"
	"io"

	"github.com/rolo-storage/rolo/internal/fleet"
)

// The fleet experiment scales the evaluation out instead of up: a small
// data center of independent arrays cycling all five schemes under
// per-tenant workload variants of one base spec (DESIGN §16). Its shards
// are leaf simulations like any other experiment's, so they draw from
// the same slot pool as the rest of a `roloexp -run all` — the fleet
// adds no concurrency of its own beyond coordination goroutines.

func init() {
	register(Experiment{
		ID:    "fleet",
		Title: "Fleet: sharded multi-tenant cluster, merged cluster report",
		Run:   runFleet,
	})
}

// optionsPool adapts the experiment slot semaphore to fleet.Pool, so
// fleet shards and other experiments' simulations share one budget
// rather than multiplying pools. Without a pool attached, Cap is 0 and
// the fleet runs its shards serially on the calling goroutine — the
// same discipline every other experiment follows.
type optionsPool struct{ o Options }

func (p optionsPool) Acquire() func() { return p.o.acquire() }
func (p optionsPool) Cap() int        { return cap(p.o.sem) }

func runFleet(o Options, w io.Writer) error {
	spec := fleet.DefaultSpec()
	spec.Check = o.Check
	spec.ProbeInterval = o.ProbeInterval
	// Each shard writes its journal directory, shard-NNNNN/, beside the
	// other experiments' journals.
	spec.Journal = o.Journal
	// The fleet rides the experiment scale: o.Scale is calibrated for
	// 20-pair single-array runs, and DefaultSpec's geometry (4 pairs,
	// 1/5 the scale) keeps a 64-shard fleet comparable to one of them.
	spec.Scale = o.Scale / 5
	fmt.Fprintf(w, "Fleet: %d shards (%d pairs each, scale %g), schemes cycled %v\n\n",
		spec.Shards, spec.Pairs, spec.Scale, spec.Schemes)
	rep, err := fleet.Run(spec, optionsPool{o})
	if err != nil {
		return err
	}
	return rep.WriteText(w)
}
