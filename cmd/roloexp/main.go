// Command roloexp regenerates the tables and figures of the RoLo paper's
// evaluation. With no arguments it lists the available experiments.
//
// Usage:
//
//	roloexp -run fig10 [-scale 0.1] [-pairs 20] [-jobs 4]
//	roloexp -run all
//	roloexp -list
//
// Independent simulations fan out across a worker pool of -jobs slots
// (default GOMAXPROCS); with -run all, whole experiments also run
// concurrently, each buffering its output so the bytes printed to stdout
// are identical for every job count. Per-experiment timing goes to
// stderr, keeping stdout deterministic; under -run all it is one line per
// experiment, in registry order, printed after the run.
//
// -check, -probe-interval and -journal reach every simulation except the
// recovery experiment's, which assembles its controllers by hand.
// -journal DIR gives every simulation a rotated journal directory of its
// own under DIR, named <scheme>_<trace>_<hash>/, and the fleet
// experiment's shards theirs, named shard-NNNNN/; each holds
// run-NNNNN.jsonl[.gz] segments and a manifest that rolostat -verify
// checks. A simulation that several experiments share runs once per
// invocation.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/rolo-storage/rolo/internal/cliprof"
	"github.com/rolo-storage/rolo/internal/experiments"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry/journal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "roloexp:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		id      = flag.String("run", "", "experiment id to run, or \"all\"")
		list    = flag.Bool("list", false, "list available experiments")
		scale   = flag.Float64("scale", 0.1, "geometry+trace scale factor in (0,1]")
		pairs   = flag.Int("pairs", 20, "number of mirrored pairs (disks = 2*pairs)")
		jobs    = flag.Int("jobs", 0, "max simulations in flight (0 = GOMAXPROCS)")
		probeIv = flag.Duration("probe-interval", 0, "periodic telemetry probe spacing (e.g. 30s; 0 disables)")
		check   = flag.Bool("check", false, "enable RoloSan: validate simulation invariants in every run and fail on the first violation")
	)
	jcfg := journal.Flags("write one telemetry journal directory per simulation under this directory, named <scheme>_<trace>_<hash>/, where the hash covers the run's configuration and workload")
	prof := cliprof.Flags()
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	opts := experiments.Options{
		Scale:         *scale,
		Pairs:         *pairs,
		Journal:       *jcfg,
		ProbeInterval: sim.Time((*probeIv) / time.Microsecond),
		Check:         *check,
		Jobs:          *jobs,
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()

	if *list || *id == "" {
		fmt.Println("Available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		fmt.Println("\nRun one with: roloexp -run <id> [-scale 0.1] [-pairs 20] [-jobs 4]")
		return nil
	}

	opts = opts.Pool(0)

	start := time.Now() //lint:allow simdeterminism:wall-clock wall-clock runtime of the harness itself, not simulated time
	if *id == "all" {
		all := experiments.All()
		held, err := experiments.RunAll(opts, os.Stdout, all)
		if err != nil {
			return err
		}
		for i, e := range all {
			fmt.Fprintf(os.Stderr, "[%s held pool slots for %v]\n", e.ID, held[i].Round(time.Millisecond))
		}
		fmt.Fprintf(os.Stderr, "[all experiments completed in %v, jobs=%d]\n",
			time.Since(start).Round(time.Millisecond), opts.Jobs) //lint:allow simdeterminism:wall-clock pairs with the wall-clock timer above
		return nil
	}

	e, err := experiments.Lookup(*id)
	if err != nil {
		return err
	}
	if err := e.Run(opts, os.Stdout); err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Fprintf(os.Stderr, "[%s completed in %v]\n",
		e.ID, time.Since(start).Round(time.Millisecond)) //lint:allow simdeterminism:wall-clock pairs with the wall-clock timer above
	return nil
}
