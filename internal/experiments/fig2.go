package experiments

import (
	"fmt"
	"io"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/metrics"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "Figure 2: impact of logger capacity on destaging interval/energy ratios",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Figure 3: IDLE vs ACTIVE/STANDBY time fractions under different I/O intensities",
		Run:   runFig3,
	})
}

// fig2Leaf is the Section II micro-benchmark: a 10-pair RAID10 with
// centralized logging (GRAID) on a log disk of logGiB (scaled), 100 %
// writes, 70 % random, 64 KB requests at a fixed rate, long enough for
// about 3.5 logging cycles.
func fig2Leaf(o Options, logGiB, iops float64) leaf {
	cfg := rolo.ScaledConfig(rolo.SchemeGRAID, o.Scale, 0)
	cfg.Pairs = 10
	// GRAID logs to its dedicated disk; leaving a quarter of each drive
	// free just sizes the data region.
	cfg.FreeBytesPerDisk = cfg.Disk.CapacityBytes / 4
	cfg.GRAID.LogCapacityBytes = min(rolo.ScaleBytes(logGiB*(1<<30), o.Scale), cfg.Disk.CapacityBytes)
	cycleBytes := float64(cfg.GRAID.LogCapacityBytes) * cfg.GRAID.DestageThreshold
	fill := cycleBytes / (iops * 64 * 1024)
	wl := trace.Uniform70Random64K(iops, sim.FromSeconds(3.5*fill), 42)
	wl.WriteWorkingSetBytes = cfg.VolumeBytes() / 2
	return leaf{cfg: cfg, wl: wl, trace: fmt.Sprintf("w64k_%giops", iops)}
}

func runFig2(o Options, w io.Writer) error {
	if err := o.Validate(); err != nil {
		return err
	}
	caps := []float64{8, 12, 16}
	rates := []float64{10, 50, 100, 200}

	abGiBs := []float64{8, 16}
	var leaves []leaf
	for _, gib := range abGiBs {
		leaves = append(leaves, fig2Leaf(o, gib, 100))
	}
	for _, gib := range caps {
		for _, iops := range rates {
			leaves = append(leaves, fig2Leaf(o, gib, iops))
		}
	}
	reps, err := o.runLeaves(leaves)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Figure 2(a,b): per-phase mean interval and energy at 100 IOPS (scale=%.2f)\n", o.Scale)
	tab := &table{header: []string{"logger", "log int(s)", "dest int(s)", "log E(J)", "dest E(J)"}}
	for i, gib := range abGiBs {
		phases := &reps[i].Phases
		dur, energy := phases.Totals()
		nLog, nDest := 0, 0
		for k := 0; k < phases.Len(); k++ {
			if phases.At(k).Phase == metrics.Logging {
				nLog++
			} else {
				nDest++
			}
		}
		if nLog == 0 || nDest == 0 {
			return fmt.Errorf("fig2: no complete cycles at %g GB", gib)
		}
		tab.add(fmt.Sprintf("%.0fGBx%.2f", gib, o.Scale),
			f1(dur[metrics.Logging].Seconds()/float64(nLog)),
			f1(dur[metrics.Destaging].Seconds()/float64(nDest)),
			fmt.Sprintf("%.0f", energy[metrics.Logging]/float64(nLog)),
			fmt.Sprintf("%.0f", energy[metrics.Destaging]/float64(nDest)))
	}
	if err := tab.write(w); err != nil {
		return err
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 2(c): destaging interval ratio")
	tc := &table{header: []string{"logger\\iops", "10", "50", "100", "200"}}
	fmt.Fprintln(w)
	td := &table{header: []string{"logger\\iops", "10", "50", "100", "200"}}
	grid := reps[len(abGiBs):]
	for ci, gib := range caps {
		rowC := []string{fmt.Sprintf("%.0fGB", gib)}
		rowD := []string{fmt.Sprintf("%.0fGB", gib)}
		for ri := range rates {
			r := grid[ci*len(rates)+ri]
			rowC = append(rowC, f3(r.DestagingIntervalRatio))
			rowD = append(rowD, f3(r.DestagingEnergyRatio))
		}
		tc.add(rowC...)
		td.add(rowD...)
	}
	if err := tc.write(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 2(d): destaging energy ratio")
	if err := td.write(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Observation (paper, Section II): the ratios barely move with logger")
	fmt.Fprintln(w, "capacity — growing the log prolongs logging and destaging periods")
	fmt.Fprintln(w, "proportionally, so centralized logging cannot convert extra space into")
	fmt.Fprintln(w, "energy savings.")
	return nil
}

func runFig3(o Options, w io.Writer) error {
	if err := o.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 3: fraction of time in IDLE vs ACTIVE+STANDBY (scale=%.2f)\n", o.Scale)
	t := &table{header: []string{"iops", "primary idle", "primary act/stby", "log idle", "log act/stby"}}
	fig3Rates := []float64{10, 50, 100, 200}
	leaves := make([]leaf, len(fig3Rates))
	for i, iops := range fig3Rates {
		leaves[i] = fig2Leaf(o, 16, iops)
	}
	reps, err := o.runLeaves(leaves)
	if err != nil {
		return err
	}
	for i, iops := range fig3Rates {
		// Disk IDs run primaries, then mirrors, then GRAID's log disk.
		disks, pairs := reps[i].DiskStateSeconds, leaves[i].cfg.Pairs
		pi, pa := stateSplit(disks[:pairs]...)
		li, la := stateSplit(disks[2*pairs])
		t.add(fmt.Sprintf("%.0f", iops), pct(pi), pct(pa), pct(li), pct(la))
	}
	if err := t.write(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Short idle slots dominate for both primaries and the log disk even at")
	fmt.Fprintln(w, "200 IOPS — the free bandwidth RoLo's decentralized destaging exploits.")
	return nil
}

// stateSplit returns the (IDLE, ACTIVE+STANDBY) fractions of the disks'
// total time, from their per-state report seconds. It sums whole
// microseconds, so the fractions do not depend on map order.
func stateSplit(disks ...map[string]float64) (idle, activeStandby float64) {
	var total, idleT, activeStandbyT sim.Time
	for _, d := range disks {
		for state, secs := range d {
			t := sim.FromSeconds(secs)
			total += t
			switch state {
			case disk.Idle.String():
				idleT += t
			case disk.Active.String(), disk.Standby.String():
				activeStandbyT += t
			}
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(idleT) / float64(total), float64(activeStandbyT) / float64(total)
}
