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
// With -journal alone the telemetry journal is a single JSONL file,
// written synchronously on the simulation goroutine. Adding
// -journal-segment turns -journal into a directory and switches to the
// async pipeline: events are handed to a writer goroutine that rotates
// size-bounded segments, optionally writes every segment gzipped
// (-journal-compress), caps how many are kept (-journal-retain), and
// records a manifest that rolostat -verify can check:
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
	"github.com/rolo-storage/rolo/internal/telemetry"
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
		journalTo = flag.String("journal", "", "write a JSONL telemetry event journal to this file (or directory with -journal-segment)")
		jSegment  = flag.Int64("journal-segment", 0, "rotate the journal into segments of this many bytes; -journal becomes a directory (0 = single file)")
		jCompress = flag.Bool("journal-compress", false, "write every journal segment gzip-compressed, as run-NNNNN.jsonl.gz; the active one is a gzip stream without its trailer until sealed (requires -journal-segment)")
		jRetain   = flag.Int("journal-retain", 0, "keep only the newest N journal segments (0 = all; requires -journal-segment)")
		jDrop     = flag.Bool("journal-drop", false, "drop events instead of blocking when the journal writer falls behind (requires -journal-segment)")
		jBuffer   = flag.Int("journal-buffer", 0, "async journal ring capacity in events (0 = default; requires -journal-segment)")
		probeIv   = flag.Duration("probe-interval", 0, "periodic telemetry probe spacing (e.g. 30s; 0 disables)")
		check     = flag.Bool("check", false, "enable RoloSan: validate simulation invariants during the run and fail on the first violation")
		asJSON    = flag.Bool("json", false, "emit the full report as JSON instead of text")
	)
	prof := cliprof.Flags()
	flag.Parse()
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
		// Clamp out-of-volume records rather than failing: real traces
		// address their original volume.
		recs = clampToVolume(recs, cfg.VolumeBytes())
	} else {
		recs, err = rolo.GenerateProfile(*profile, cfg, *scale)
		if err != nil {
			return err
		}
	}

	if *jSegment == 0 {
		for _, mod := range []struct {
			set  bool
			name string
		}{
			{*jCompress, "-journal-compress"},
			{*jRetain != 0, "-journal-retain"},
			{*jDrop, "-journal-drop"},
			{*jBuffer != 0, "-journal-buffer"},
		} {
			if mod.set {
				return fmt.Errorf("%s requires -journal-segment", mod.name)
			}
		}
	}
	switch {
	case *journalTo != "" && *jSegment > 0:
		// Rotated mode: -journal names a directory; encoding and IO move
		// to the async pipeline's writer goroutine.
		w, werr := journal.NewRotatingWriter(journal.RotateConfig{
			Dir:          *journalTo,
			SegmentBytes: *jSegment,
			Compress:     *jCompress,
			Retain:       *jRetain,
		})
		if werr != nil {
			return werr
		}
		policy := journal.PolicyBlock
		if *jDrop {
			policy = journal.PolicyDrop
		}
		sink := journal.NewAsyncSink(w, journal.AsyncConfig{Buffer: *jBuffer, Policy: policy})
		// Closing drains the ring, seals the final segment and writes the
		// manifest; a close failure means a broken journal, so it
		// surfaces as the run's error.
		defer func() {
			if cerr := sink.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if st := sink.Stats(); st.Dropped > 0 {
				fmt.Fprintf(os.Stderr, "rolosim: journal dropped %d of %d events under backpressure\n",
					st.Dropped, st.Dropped+st.Enqueued)
			}
		}()
		cfg.Telemetry.Sink = sink
	case *journalTo != "":
		f, ferr := os.Create(*journalTo)
		if ferr != nil {
			return ferr
		}
		// The journal is written through this file; a failed close means
		// a truncated journal, so it surfaces as the run's error.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		cfg.Telemetry.Sink = telemetry.NewJSONLSink(f)
	case *jSegment > 0:
		return fmt.Errorf("-journal-segment requires -journal <dir>")
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

func clampToVolume(recs []trace.Record, volume int64) []trace.Record {
	out := recs[:0]
	for _, r := range recs {
		if r.Size <= 0 {
			continue
		}
		if r.End() > volume {
			r.Offset = r.Offset % (volume - r.Size)
			r.Offset -= r.Offset % 512
		}
		out = append(out, r)
	}
	return out
}
