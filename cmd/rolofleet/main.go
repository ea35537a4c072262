// Command rolofleet simulates a fleet of independent arrays — one per
// tenant shard — and prints one merged, deterministic cluster report.
// The report bytes depend only on the fleet spec, never on -jobs: shards
// run concurrently on a worker pool but their reports fold in shard
// order through a constant-memory streaming merge.
//
// Usage:
//
//	rolofleet -shards 512 -jobs 8
//	rolofleet -shards 100 -scheme RoLo-P,RoLo-E -workload 'iops=120 write=0.9 duration=30s size=32K random=0.7 seed=5'
//	rolofleet -shards 32 -jobs 4 -check
//
// Each spec flag sets one field of fleet.DefaultSpec, whose value is the
// flag's default, and fleet.Spec.Validate judges the result before any
// shard runs. With -journal DIR every shard writes a rotated telemetry
// journal, run-NNNNN.jsonl[.gz] segments and a manifest, under
// DIR/shard-NNNNN/ through the async pipeline's drop policy; the
// manifest counts what was dropped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/rolo-storage/rolo/internal/cliprof"
	"github.com/rolo-storage/rolo/internal/fleet"
	"github.com/rolo-storage/rolo/internal/telemetry/journal"
	"github.com/rolo-storage/rolo/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rolofleet:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	spec := fleet.DefaultSpec()
	flag.IntVar(&spec.Shards, "shards", spec.Shards, "number of tenant shards")
	flag.IntVar(&spec.Pairs, "pairs", spec.Pairs, "mirrored pairs per shard")
	flag.Float64Var(&spec.Scale, "scale", spec.Scale, "geometry+trace scale factor in (0,1]")
	flag.Float64Var(&spec.FreeGiB, "free", spec.FreeGiB, "per-shard-disk free (logging) space in GiB before scaling")
	flag.Int64Var(&spec.StripeKB, "stripe", spec.StripeKB, "stripe unit in KB")
	flag.Int64Var(&spec.Rule.SeedStride, "seed-stride", spec.Rule.SeedStride, "per-shard seed spacing")
	flag.Float64Var(&spec.Rule.IOPSSpread, "iops-spread", spec.Rule.IOPSSpread, "per-shard IOPS spread in [0,1)")
	flag.IntVar(&spec.WorstK, "worst", spec.WorstK, "worst-shard digest size")
	flag.BoolVar(&spec.Check, "check", spec.Check, "enable RoloSan invariant checking in every shard")
	var (
		schemes  = flag.String("scheme", "all", "comma-separated schemes cycled across shards, or \"all\"")
		workload = flag.String("workload", fleet.DefaultWorkload, "base tenant workload spec (see trace.ParseSyntheticSpec)")
		jobs     = flag.Int("jobs", 1, "concurrent shard simulations (0 = GOMAXPROCS)")
		asJSON   = flag.Bool("json", false, "emit the cluster report as JSON instead of text")
	)
	jcfg := journal.Flags("write one telemetry journal directory per shard under this directory, named shard-NNNNN/")
	prof := cliprof.Flags()
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()

	if spec.Schemes, err = fleet.ParseSchemeList(*schemes); err != nil {
		return err
	}
	if spec.Base, err = trace.ParseSyntheticSpec(*workload); err != nil {
		return err
	}
	spec.Journal = *jcfg
	if err := spec.Validate(); err != nil {
		return err
	}

	var pool fleet.Pool
	if *jobs != 1 {
		pool = fleet.NewPool(*jobs)
	}

	// Wall-clock timing is operator feedback on stderr only; the report
	// on stdout stays a pure function of the spec.
	start := time.Now() //lint:allow simdeterminism:wall-clock operator progress timing, never enters the report
	rep, err := fleet.Run(spec, pool)
	if err != nil {
		return err
	}
	elapsed := time.Since(start) //lint:allow simdeterminism:wall-clock operator progress timing, never enters the report
	fmt.Fprintf(os.Stderr, "rolofleet: %d shards in %.2fs (-jobs %d)\n",
		spec.Shards, elapsed.Seconds(), *jobs)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	return rep.WriteText(os.Stdout)
}
