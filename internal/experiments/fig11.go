package experiments

import (
	"fmt"
	"io"

	"github.com/rolo-storage/rolo"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Figure 11: energy saved over RAID10 vs number of disks (20/30/40)",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Figure 12: average response time vs number of disks (20/30/40)",
		Run:   runFig12,
	})
}

var fig11Pairs = []int{10, 15, 20}

// sizeResults runs the Figure 10 grid at every Figure 11 array size.
func sizeResults(o Options) ([]map[string]map[rolo.Scheme]rolo.Report, error) {
	out := make([]map[string]map[rolo.Scheme]rolo.Report, len(fig11Pairs))
	for i, pairs := range fig11Pairs {
		po := o
		po.Pairs = pairs
		res, err := gridResults(po, mainTraces)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

func runFig11(o Options, w io.Writer) error {
	sizes, err := sizeResults(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 11: energy saved over RAID10 as a function of array size (scale=%.2f)\n", o.Scale)
	for _, tr := range mainTraces {
		fmt.Fprintf(w, "\nunder %s:\n", tr)
		t := &table{header: []string{"scheme", "20 disks", "30 disks", "40 disks"}}
		rows := map[rolo.Scheme][]string{}
		for _, res := range sizes {
			base := res[tr][rolo.SchemeRAID10].EnergyJ
			for _, s := range rolo.Schemes[1:] {
				rows[s] = append(rows[s], pct(1-res[tr][s].EnergyJ/base))
			}
		}
		for _, s := range rolo.Schemes[1:] {
			t.add(append([]string{s.String()}, rows[s]...)...)
		}
		if err := t.write(w); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Larger arrays widen every logging scheme's savings; RoLo gains more")
	fmt.Fprintln(w, "than GRAID because each added pair is another sleeping logger.")
	return nil
}

func runFig12(o Options, w io.Writer) error {
	sizes, err := sizeResults(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 12: mean response time (ms) as a function of array size (scale=%.2f)\n", o.Scale)
	for _, tr := range mainTraces {
		fmt.Fprintf(w, "\nunder %s:\n", tr)
		t := &table{header: []string{"scheme", "20 disks", "30 disks", "40 disks"}}
		rows := map[rolo.Scheme][]string{}
		for _, res := range sizes {
			for _, s := range rolo.Schemes {
				rows[s] = append(rows[s], f2(res[tr][s].MeanResponseMs))
			}
		}
		for _, s := range rolo.Schemes {
			t.add(append([]string{s.String()}, rows[s]...)...)
		}
		if err := t.write(w); err != nil {
			return err
		}
	}
	return nil
}
