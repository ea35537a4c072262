package experiments

import (
	"fmt"
	"io"

	"github.com/rolo-storage/rolo"
)

func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "Figure 13: energy saved over GRAID vs per-disk free space (8/6/4 GB)",
		Run:   runFig13,
	})
	register(Experiment{
		ID:    "stripe",
		Title: "Section V-C: sensitivity to stripe unit size (16/32/64 KB)",
		Run:   runStripe,
	})
	register(Experiment{
		ID:    "disksize",
		Title: "Section V-C: sensitivity to disk size at fixed 50% free-space ratio",
		Run:   runDiskSize,
	})
}

func runFig13(o Options, w io.Writer) error {
	if err := o.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 13: energy saved over GRAID vs free storage space (scale=%.2f)\n", o.Scale)
	freeGiBs := []float64{8, 6, 4}
	roloSchemes := []rolo.Scheme{rolo.SchemeRoLoP, rolo.SchemeRoLoR, rolo.SchemeRoLoE}
	var leaves []leaf
	for _, tr := range mainTraces {
		l, err := profileLeaf(o, rolo.SchemeGRAID, tr, 8, 64<<10)
		if err != nil {
			return err
		}
		leaves = append(leaves, l)
		for _, s := range roloSchemes {
			for _, free := range freeGiBs {
				l, err := profileLeaf(o, s, tr, free, 64<<10)
				if err != nil {
					return err
				}
				leaves = append(leaves, l)
			}
		}
	}
	reps, err := o.runLeaves(leaves)
	if err != nil {
		return err
	}
	k := 0
	for _, tr := range mainTraces {
		fmt.Fprintf(w, "\nunder %s:\n", tr)
		graid := reps[k]
		k++
		t := &table{header: []string{"scheme", "8GB", "6GB", "4GB"}}
		for _, s := range roloSchemes {
			row := []string{s.String()}
			for range freeGiBs {
				row = append(row, pct(1-reps[k].EnergyJ/graid.EnergyJ))
				k++
			}
			t.add(row...)
		}
		if err := t.write(w); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Less free space means shorter logging periods and more frequent logger")
	fmt.Fprintln(w, "rotations, slightly eroding (but not eliminating) RoLo's advantage.")
	return nil
}

func runStripe(o Options, w io.Writer) error {
	if err := o.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "Stripe-unit sensitivity: energy saved over RAID10 under src2_2 (scale=%.2f)\n", o.Scale)
	t := &table{header: []string{"scheme", "16KB", "32KB", "64KB"}}
	stripes := []int64{16 << 10, 32 << 10, 64 << 10}
	var leaves []leaf
	for _, su := range stripes {
		for _, s := range rolo.Schemes {
			l, err := profileLeaf(o, s, "src2_2", 8, su)
			if err != nil {
				return err
			}
			leaves = append(leaves, l)
		}
	}
	reps, err := o.runLeaves(leaves)
	if err != nil {
		return err
	}
	rows := map[rolo.Scheme][]string{}
	k := 0
	for range stripes {
		var base rolo.Report
		for _, s := range rolo.Schemes {
			rep := reps[k]
			k++
			if s == rolo.SchemeRAID10 {
				base = rep
				continue
			}
			rows[s] = append(rows[s], pct(1-rep.EnergyJ/base.EnergyJ))
		}
	}
	for _, s := range rolo.Schemes[1:] {
		t.add(append([]string{s.String()}, rows[s]...)...)
	}
	if err := t.write(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Per the paper, only RoLo-E shows stripe-size sensitivity under src2_2:")
	fmt.Fprintln(w, "smaller units split read misses across more sleeping disks.")
	return nil
}

func runDiskSize(o Options, w io.Writer) error {
	if err := o.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "Disk-size sensitivity at fixed 50%% free ratio: energy saved over GRAID (scale=%.2f)\n", o.Scale)
	// The paper shrinks GRAID's log disk to 16/8/4 GB with RoLo free space
	// 8/4/2 GB so the free-space ratio stays 50 %.
	type size struct {
		label    string
		diskGiB  float64
		freeGiB  float64
		graidGiB float64
	}
	sizes := []size{
		{"16GB log", 18.4, 8, 16},
		{"8GB log", 9.2, 4, 8},
		{"4GB log", 4.6, 2, 4},
	}
	roloSchemes := []rolo.Scheme{rolo.SchemeRoLoP, rolo.SchemeRoLoR, rolo.SchemeRoLoE}
	// Each size runs GRAID, then the RoLo schemes measured against it.
	schemes := append([]rolo.Scheme{rolo.SchemeGRAID}, roloSchemes...)
	var leaves []leaf
	for _, tr := range mainTraces {
		for _, sz := range sizes {
			for _, s := range schemes {
				l, err := profileLeaf(o, s, tr, sz.freeGiB, 64<<10)
				if err != nil {
					return err
				}
				l.cfg.Disk.CapacityBytes = rolo.ScaleBytes(sz.diskGiB*(1<<30), o.Scale)
				l.cfg.GRAID.LogCapacityBytes = rolo.ScaleBytes(sz.graidGiB*(1<<30), o.Scale)
				leaves = append(leaves, l)
			}
		}
	}
	reps, err := o.runLeaves(leaves)
	if err != nil {
		return err
	}
	k := 0
	for _, tr := range mainTraces {
		fmt.Fprintf(w, "\nunder %s:\n", tr)
		t := &table{header: []string{"scheme", sizes[0].label, sizes[1].label, sizes[2].label}}
		rows := map[rolo.Scheme][]string{}
		for range sizes {
			graid := reps[k]
			k++
			for _, s := range roloSchemes {
				rows[s] = append(rows[s], pct(1-reps[k].EnergyJ/graid.EnergyJ))
				k++
			}
		}
		for _, s := range roloSchemes {
			t.add(append([]string{s.String()}, rows[s]...)...)
		}
		if err := t.write(w); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The paper's conclusion: at a fixed free-space ratio, RoLo's advantage")
	fmt.Fprintln(w, "over GRAID tracks disk count and free space, not raw disk size.")
	return nil
}
