// Command tracegen emits synthetic block traces in the MSR Cambridge CSV
// format, either from a calibrated profile of one of the paper's traces or
// from explicit generator parameters.
//
// Usage:
//
//	tracegen -profile src2_2 -scale 0.05 > src2_2.csv
//	tracegen -iops 100 -write-ratio 0.9 -duration 10m -size 64 > synth.csv
//	tracegen -spec "iops=200 write=0.9 duration=10m size=64K seed=3" > synth.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/rolo-storage/rolo/internal/sim"
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
		profile    = flag.String("profile", "", "calibrated MSR profile (src2_2, proj_0, ...)")
		scale      = flag.Float64("scale", 0.05, "fraction of the profile window to emit")
		volumeGiB  = flag.Float64("volume", 208, "logical volume size in GiB")
		iops       = flag.Float64("iops", 100, "request rate (explicit mode)")
		writeRatio = flag.Float64("write-ratio", 1.0, "write fraction (explicit mode)")
		duration   = flag.Duration("duration", 10*time.Minute, "trace length (explicit mode)")
		sizeKB     = flag.Int64("size", 64, "average request size in KB (explicit mode)")
		randomFrac = flag.Float64("random", 0.7, "random-write fraction (explicit mode)")
		burst      = flag.Float64("burst", 0, "burstiness in [0,1) (explicit mode)")
		seed       = flag.Int64("seed", 1, "random seed (explicit mode)")
		hostname   = flag.String("hostname", "rolosim", "hostname column value")
		spec       = flag.String("spec", "", "compact workload spec (see trace.ParseSyntheticSpec); overrides explicit-mode flags")
		list       = flag.Bool("list", false, "list calibrated profiles")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
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
	var err error
	if *profile != "" {
		p, lerr := trace.Lookup(*profile)
		if lerr != nil {
			return lerr
		}
		recs, err = p.Generate(volume, *scale)
	} else if *spec != "" {
		syn, serr := trace.ParseSyntheticSpec(*spec)
		if serr != nil {
			return serr
		}
		recs, err = syn.Generate(volume)
	} else {
		syn := trace.Synthetic{
			Duration:    sim.FromSeconds(duration.Seconds()),
			IOPS:        *iops,
			WriteRatio:  *writeRatio,
			AvgReqBytes: *sizeKB << 10,
			RandomFrac:  *randomFrac,
			Burstiness:  *burst,
			Seed:        *seed,
		}
		recs, err = syn.Generate(volume)
	}
	if err != nil {
		return err
	}
	st := trace.Characterize(recs)
	fmt.Fprintf(os.Stderr, "generated %d records: %.1f%% writes, %.2f IOPS avg, %.1f KB avg, %.2f GiB written\n",
		st.Requests, 100*st.WriteRatio, st.IOPS, st.AvgReqBytes/1024, float64(st.WriteBytes)/(1<<30))
	fmt.Fprintf(os.Stderr, "characteristics: duty %.3f, burst %.1f IOPS, peak %.0f IOPS, %.0f%% sequential, write WS %.2f GiB\n",
		st.DutyCycle, st.BurstIOPS, st.PeakIOPS, 100*st.SequentialFrac, float64(st.WriteWorkingSetBytes)/(1<<30))
	return trace.WriteMSR(os.Stdout, *hostname, 0, recs)
}
