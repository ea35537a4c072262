package experiments

import (
	"fmt"
	"io"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/parity"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "parity",
		Title: "Section VII (future work): RoLo on a parity array — small-write penalty",
		Run:   runParity,
	})
}

// runParity evaluates the paper's future-work direction: rotated logging
// transplanted onto RAID5. The metric is the small-write penalty — RAID5
// pays read-modify-write (four I/Os on the request path) while RoLo5 logs
// the second copy sequentially (two I/Os) and rebuilds parity in idle
// slots.
func runParity(o Options, w io.Writer) error {
	if err := o.Validate(); err != nil {
		return err
	}
	disks := 2 * o.Pairs // comparable spindle count to the RAID10 runs
	fmt.Fprintf(w, "RoLo on parity storage (RAID5, %d disks, scale=%.2f)\n\n", disks, o.Scale)

	t := &table{header: []string{
		"iops", "RAID5 mean(ms)", "RoLo5 mean(ms)", "speedup",
		"logged", "rmw-fallback", "stale@end",
	}}
	rates := []float64{20, 60, 120}
	rows := make([][]string, len(rates))
	if err := runPar(o, len(rates), func(ri int) error {
		row, err := parityPoint(o, disks, rates[ri])
		rows[ri] = row
		return err
	}); err != nil {
		return err
	}
	for _, row := range rows {
		t.add(row...)
	}
	if err := t.write(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Logged small writes cost two I/Os instead of RAID5's four; parity is")
	fmt.Fprintln(w, "reconstructed by an idle-slot sweeper and log extents are reclaimed per")
	fmt.Fprintln(w, "stripe — rotated logging and decentralized destaging on parity storage.")
	return nil
}

// parityPoint simulates RAID5 and RoLo5 at one request rate and returns
// the formatted table row. Both runs share one pool slot: the pair is a
// single leaf because the speedup column relates the two runs.
func parityPoint(o Options, disks int, iops float64) ([]string, error) {
	defer o.acquire()() // one pool slot per leaf simulation
	cfg := rolo.ScaledConfig(rolo.SchemeRAID10, o.Scale, 8)
	data := cfg.Disk.CapacityBytes - cfg.FreeBytesPerDisk
	data -= data % (64 << 10)
	geom := parity.Geometry{Disks: disks, StripUnitBytes: 64 << 10, DataBytesPerDisk: data}
	syn := trace.Uniform70Random64K(iops, 3*sim.Minute, 17)

	runOne := func(useRoLo bool) (mean float64, logged, rmw, stale int64, err error) {
		eng := sim.New()
		arr, err := parity.NewArray(eng, geom, cfg.Disk)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		recs, err := syn.Generate(geom.VolumeBytes())
		if err != nil {
			return 0, 0, 0, 0, err
		}
		var submit func(trace.Record) error
		var finish func() (float64, int64, int64, int64)
		if useRoLo {
			c, err := parity.NewRoLo5(arr, parity.DefaultRoLo5Config())
			if err != nil {
				return 0, 0, 0, 0, err
			}
			submit = c.Submit
			finish = func() (float64, int64, int64, int64) {
				return c.Responses().Mean(), c.LoggedWrites(), c.DirectRMW(), c.StaleParityStripes()
			}
		} else {
			c := parity.NewRAID5(arr)
			submit = c.Submit
			finish = func() (float64, int64, int64, int64) {
				return c.Responses().Mean(), 0, c.RMWWrites(), 0
			}
		}
		var in feed
		if err := in.schedule(eng, recs, submit); err != nil {
			return 0, 0, 0, 0, err
		}
		eng.Run()
		if in.err != nil {
			return 0, 0, 0, 0, in.err
		}
		m, l, r, s := finish()
		return m, l, r, s, nil
	}

	raidMean, _, _, _, err := runOne(false)
	if err != nil {
		return nil, err
	}
	roloMean, logged, rmw, stale, err := runOne(true)
	if err != nil {
		return nil, err
	}
	return []string{fmt.Sprintf("%.0f", iops), f2(raidMean), f2(roloMean),
		fmt.Sprintf("%.2fx", raidMean/roloMean),
		fmt.Sprintf("%d", logged), fmt.Sprintf("%d", rmw), fmt.Sprintf("%d", stale)}, nil
}
