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
//	rolofleet -fleet cluster.spec -json
//	rolofleet -shards 32 -jobs 4 -check
//
// A spec file (-fleet) holds one "key value" pair per line — shards,
// scheme, pairs, scale, free, stripe, seed-stride, iops-spread, worst,
// workload — and command-line flags override it. With -journal DIR every
// shard writes a rotated telemetry journal, run-NNNNN.jsonl[.gz]
// segments and a manifest, under DIR/shard-NNNNN/ through the async
// pipeline's drop policy; the manifest counts what was dropped.
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
	var (
		specFile   = flag.String("fleet", "", "fleet spec file (flags below override its keys)")
		shards     = flag.Int("shards", 0, "number of tenant shards (overrides spec)")
		schemes    = flag.String("scheme", "", "comma-separated schemes cycled across shards, or \"all\" (overrides spec)")
		workload   = flag.String("workload", "", "base tenant workload spec, e.g. 'iops=120 write=0.9 duration=30s size=32K random=0.7 seed=5'")
		pairs      = flag.Int("pairs", 0, "mirrored pairs per shard (overrides spec)")
		scale      = flag.Float64("scale", 0, "geometry+trace scale factor in (0,1] (overrides spec)")
		freeGiB    = flag.Float64("free", 0, "per-shard-disk free (logging) space in GiB before scaling (overrides spec)")
		stripeKB   = flag.Int64("stripe", 0, "stripe unit in KB (overrides spec)")
		seedStride = flag.Int64("seed-stride", 0, "per-shard seed spacing (overrides spec)")
		iopsSpread = flag.Float64("iops-spread", -1, "per-shard IOPS spread in [0,1) (overrides spec)")
		worstK     = flag.Int("worst", 0, "worst-shard digest size (overrides spec)")
		jobs       = flag.Int("jobs", 1, "concurrent shard simulations (0 = GOMAXPROCS)")
		check      = flag.Bool("check", false, "enable RoloSan invariant checking in every shard")
		asJSON     = flag.Bool("json", false, "emit the cluster report as JSON instead of text")
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

	spec := fleet.DefaultSpec()
	if *specFile != "" {
		f, err := os.Open(*specFile)
		if err != nil {
			return err
		}
		defer f.Close() //lint:allow resourcelifecycle:dropped-error read-only spec file, close error carries no data
		spec, err = fleet.ParseSpec(f)
		if err != nil {
			return err
		}
	}
	if *shards > 0 {
		spec.Shards = *shards
	}
	if *schemes != "" {
		list, err := fleet.ParseSchemeList(*schemes)
		if err != nil {
			return err
		}
		spec.Schemes = list
	}
	if *workload != "" {
		base, err := trace.ParseSyntheticSpec(*workload)
		if err != nil {
			return err
		}
		spec.Base = base
	}
	if *pairs > 0 {
		spec.Pairs = *pairs
	}
	if *scale > 0 {
		spec.Scale = *scale
	}
	if *freeGiB > 0 {
		spec.FreeGiB = *freeGiB
	}
	if *stripeKB > 0 {
		spec.StripeKB = *stripeKB
	}
	if *seedStride != 0 {
		spec.Rule.SeedStride = *seedStride
	}
	if *iopsSpread >= 0 {
		spec.Rule.IOPSSpread = *iopsSpread
	}
	if *worstK > 0 {
		spec.WorstK = *worstK
	}
	spec.Check = *check
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
