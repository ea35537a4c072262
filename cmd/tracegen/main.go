// Command tracegen emits synthetic block traces in the MSR Cambridge CSV
// format, either from a calibrated profile of one of the paper's traces or
// from a compact workload spec (trace.ParseSyntheticSpec). -scale applies
// only to -profile, and -spec only without it.
//
// Usage:
//
//	tracegen -profile src2_2 -scale 0.05 > src2_2.csv
//	tracegen -spec "iops=200 write=0.9 duration=10m size=64K seed=3" > synth.csv
//	tracegen > synth.csv    # the default spec, duration=10m
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/rolo-storage/rolo/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		profile   = flag.String("profile", "", "calibrated MSR profile (src2_2, proj_0, ...)")
		scale     = flag.Float64("scale", 0.05, "fraction of the profile window to emit (with -profile)")
		volumeGiB = flag.Float64("volume", 208, "logical volume size in GiB")
		hostname  = flag.String("hostname", "rolosim", "hostname column value")
		spec      = flag.String("spec", "duration=10m", "compact workload spec (see trace.ParseSyntheticSpec), without -profile")
		list      = flag.Bool("list", false, "list calibrated profiles")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["spec"] && set["profile"] || set["scale"] && !set["profile"] {
		return fmt.Errorf("-scale requires -profile, and -spec excludes it")
	}

	if *list {
		fmt.Fprintln(os.Stderr, "calibrated profiles:")
		for _, n := range trace.ProfileNames() {
			p := trace.Profiles[n]
			fmt.Fprintf(os.Stderr, "  %-8s write=%.1f%% burstIOPS=%.2f duty=%.3f avg=%.1fKB cap=%.2fGiB\n",
				n, 100*p.WriteRatio, p.IOPS, p.DutyCycle(), float64(p.AvgReqBytes)/1024, p.WriteCapGiB)
		}
		return nil
	}

	volume := int64(*volumeGiB * (1 << 30))
	var recs []trace.Record
	if *profile != "" {
		p, err := trace.Lookup(*profile)
		if err != nil {
			return err
		}
		if recs, err = p.Generate(volume, *scale); err != nil {
			return err
		}
	} else {
		syn, err := trace.ParseSyntheticSpec(*spec)
		if err != nil {
			return err
		}
		if recs, err = syn.Generate(volume); err != nil {
			return err
		}
	}
	st := trace.Characterize(recs)
	fmt.Fprintf(os.Stderr, "generated %d records: %.1f%% writes, %.2f IOPS avg, %.1f KB avg, %.2f GiB written\n",
		st.Requests, 100*st.WriteRatio, st.IOPS, st.AvgReqBytes/1024, float64(st.WriteBytes)/(1<<30))
	fmt.Fprintf(os.Stderr, "characteristics: duty %.3f, burst %.1f IOPS, peak %.0f IOPS, %.0f%% sequential, write WS %.2f GiB\n",
		st.DutyCycle, st.BurstIOPS, st.PeakIOPS, 100*st.SequentialFrac, float64(st.WriteWorkingSetBytes)/(1<<30))
	return trace.WriteMSR(os.Stdout, *hostname, 0, recs)
}
