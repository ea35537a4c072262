// Command rolosim runs a single storage-scheme simulation and prints a
// report. The workload is either a calibrated MSR profile or a real MSR
// CSV trace file.
//
// Usage:
//
//	rolosim -scheme RoLo-P -profile src2_2 -scale 0.05
//	rolosim -scheme GRAID -trace /path/to/src2_2.csv
//	rolosim -scheme RoLo-E -profile proj_0 -pairs 10 -free 4
//
// -journal DIR writes the run's telemetry journal to DIR: run-NNNNN.jsonl
// segments plus a manifest that rolostat -verify checks. Events are
// handed to a writer goroutine through the async pipeline, which never
// drops one. -journal-segment bounds the segments' size (by default the
// journal is one segment, and every segment is kept), and
// -journal-compress writes every segment gzipped:
//
//	rolosim -scheme RoLo-P -journal rundir -journal-segment 4194304 -journal-compress
//	rolostat -verify rundir
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/cliprof"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry/journal"
	"github.com/rolo-storage/rolo/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rolosim:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		scheme    = flag.String("scheme", "RoLo-P", "scheme: RAID10, GRAID, RoLo-P, RoLo-R, RoLo-E")
		profile   = flag.String("profile", "src2_2", "calibrated MSR profile name")
		traceFile = flag.String("trace", "", "MSR CSV trace file (overrides -profile)")
		scale     = flag.Float64("scale", 0.05, "geometry+trace scale factor in (0,1]")
		pairs     = flag.Int("pairs", 20, "mirrored pairs (disks = 2*pairs)")
		freeGiB   = flag.Float64("free", 8, "per-disk free (logging) space in GiB before scaling")
		stripeKB  = flag.Int64("stripe", 64, "stripe unit in KB")
		probeIv   = flag.Duration("probe-interval", 0, "periodic telemetry probe spacing (e.g. 30s; 0 disables)")
		check     = flag.Bool("check", false, "enable RoloSan: validate simulation invariants during the run and fail on the first violation")
		asJSON    = flag.Bool("json", false, "emit the full report as JSON instead of text")
	)
	jcfg := journal.Flags("write the telemetry journal to this directory, as run-NNNNN.jsonl segments plus manifest.json")
	prof := cliprof.Flags()
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if err := jcfg.Validate(); err != nil {
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

	s, err := rolo.ParseScheme(*scheme)
	if err != nil {
		return err
	}
	cfg := rolo.ScaledConfig(s, *scale, *freeGiB)
	cfg.Pairs = *pairs
	cfg.StripeUnitBytes = *stripeKB << 10

	var recs []trace.Record
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close() //lint:allow resourcelifecycle:dropped-error read-only trace file, close error carries no data
		recs, err = trace.ParseMSR(f)
		if err != nil {
			return err
		}
		recs, err = clampToVolume(recs, cfg.VolumeBytes())
		if err != nil {
			return err
		}
	} else {
		recs, err = rolo.GenerateProfile(*profile, cfg, *scale)
		if err != nil {
			return err
		}
	}

	if jcfg.Dir != "" {
		sink, jerr := journal.Create(*jcfg, journal.PolicyBlock)
		if jerr != nil {
			return jerr
		}
		// Closing drains the ring, seals the last segment and writes the
		// manifest; a close failure means a broken journal, so it
		// surfaces as the run's error.
		defer func() {
			if cerr := sink.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		cfg.Telemetry.Sink = sink
	}
	cfg.Telemetry.ProbeInterval = sim.Time((*probeIv) / time.Microsecond)
	cfg.Check = *check

	st := trace.Summarize(recs)
	if !*asJSON {
		fmt.Printf("workload: %d requests, %.1f%% writes, %.2f IOPS avg, %.1f KB avg, %.2f GiB written\n",
			st.Requests, 100*st.WriteRatio, st.IOPS, st.AvgReqBytes/1024, float64(st.WriteBytes)/(1<<30))
		fmt.Printf("array: %s, %d disks, %.2f GiB/disk (%.2f GiB logging), stripe %d KB\n\n",
			s, 2**pairs, float64(cfg.Disk.CapacityBytes)/(1<<30),
			float64(cfg.FreeBytesPerDisk)/(1<<30), *stripeKB)
	}

	rep, err := rolo.Run(cfg, recs)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("energy:            %.0f J over %v (%.1f W average)\n",
		rep.EnergyJ, rep.Horizon, rep.EnergyJ/rep.Horizon.Seconds())
	fmt.Printf("mean response:     %.3f ms (p95 %.1f, p99 %.1f, max %.1f)\n",
		rep.MeanResponseMs, rep.P95ResponseMs, rep.P99ResponseMs, rep.MaxResponseMs)
	fmt.Printf("  reads:           %d reqs, mean %.3f ms, p99 %.1f ms\n",
		rep.ReadLatency.Count, rep.ReadLatency.MeanMs, rep.ReadLatency.P99Ms)
	fmt.Printf("  writes:          %d reqs, mean %.3f ms, p99 %.1f ms\n",
		rep.WriteLatency.Count, rep.WriteLatency.MeanMs, rep.WriteLatency.P99Ms)
	fmt.Printf("spin cycles:       %d\n", rep.SpinCycles)
	if rep.Rotations > 0 {
		fmt.Printf("logger rotations:  %d\n", rep.Rotations)
	}
	if rep.Destages > 0 {
		fmt.Printf("destages:          %d (interval ratio %.3f, energy ratio %.3f)\n",
			rep.Destages, rep.DestagingIntervalRatio, rep.DestagingEnergyRatio)
	}
	if rep.ReadHitRate > 0 {
		fmt.Printf("read hit rate:     %.2f%%\n", 100*rep.ReadHitRate)
	}
	if rep.DirectWrites > 0 {
		fmt.Printf("direct writes:     %d\n", rep.DirectWrites)
	}
	states := make([]string, 0, len(rep.StateSeconds))
	for k := range rep.StateSeconds {
		states = append(states, k)
	}
	sort.Strings(states)
	fmt.Printf("disk-state time:  ")
	for _, k := range states {
		fmt.Printf(" %s=%.0fs", k, rep.StateSeconds[k])
	}
	fmt.Println()
	if rep.ProbeSamples > 0 {
		fmt.Printf("probes:            %d samples, peak log occupancy %.1f%%, peak backlog %.2f MiB, peak spinning %d\n",
			rep.ProbeSamples, 100*rep.PeakLogOccupancy,
			float64(rep.PeakDestageBacklogBytes)/(1<<20), rep.PeakSpinningDisks)
	}
	if *check {
		fmt.Printf("sanitizer:         clean (%d events, %d sweeps)\n",
			rep.SanitizerEvents, rep.SanitizerSweeps)
	}
	return nil
}

// clampToVolume folds records that run past the end of the volume back
// into it, 512-byte aligned, rather than failing: real traces address
// their original, larger volume. A record larger than the whole volume
// cannot fit anywhere and is an error naming its trace line.
func clampToVolume(recs []trace.Record, volume int64) ([]trace.Record, error) {
	out := recs[:0]
	for i, r := range recs {
		switch {
		case r.Size <= 0:
			continue
		case r.Size > volume:
			return nil, fmt.Errorf("trace line %d: %d-byte request at offset %d exceeds the %d-byte volume",
				i+1, r.Size, r.Offset, volume)
		case r.End() > volume:
			// The offset lands in [0, volume-size]: a record that fills
			// the whole volume starts at 0.
			r.Offset %= max(volume-r.Size, 1)
			r.Offset -= r.Offset % 512
		}
		out = append(out, r)
	}
	return out, nil
}
