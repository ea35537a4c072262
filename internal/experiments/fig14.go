package experiments

import (
	"fmt"
	"io"

	"github.com/rolo-storage/rolo"
)

func init() {
	register(Experiment{
		ID:    "fig14",
		Title: "Figure 14: energy and response time under non-write-intensive traces",
		Run:   runFig14,
	})
}

// lightTraces are the five non-write-intensive traces of Table VI, in the
// paper's presentation order.
var lightTraces = []string{"mds_0", "hm_1", "rsrch_2", "wdev_0", "web_1"}

func runFig14(o Options, w io.Writer) error {
	results, err := gridResults(o, lightTraces)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Figure 14(a): energy consumption normalized to RAID10 (scale=%.2f)\n", o.Scale)
	ta := &table{header: []string{"trace", "RAID10", "GRAID", "RoLo-P", "RoLo-R", "RoLo-E"}}
	for _, tr := range lightTraces {
		base := results[tr][rolo.SchemeRAID10].EnergyJ
		row := []string{tr}
		for _, s := range rolo.Schemes {
			row = append(row, f3(results[tr][s].EnergyJ/base))
		}
		ta.add(row...)
	}
	if err := ta.write(w); err != nil {
		return err
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 14(b): mean response time normalized to RAID10 (log-scale axis in the paper)")
	tb := &table{header: []string{"trace", "RAID10", "GRAID", "RoLo-P", "RoLo-R", "RoLo-E"}}
	for _, tr := range lightTraces {
		base := results[tr][rolo.SchemeRAID10].MeanResponseMs
		row := []string{tr}
		for _, s := range rolo.Schemes {
			row = append(row, f2(results[tr][s].MeanResponseMs/base))
		}
		tb.add(row...)
	}
	if err := tb.write(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "On non-write-intensive workloads RoLo-P/R track GRAID closely; the")
	fmt.Fprintln(w, "paper's conclusion is that deploying RoLo there does negligible harm.")
	return nil
}
