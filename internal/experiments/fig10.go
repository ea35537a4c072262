package experiments

import (
	"fmt"
	"io"

	"github.com/rolo-storage/rolo"
)

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Figure 10: energy and mean response time vs RAID10 (src2_2, proj_0)",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "table1",
		Title: "Table I: disk spin up/down counts per scheme (src2_2, proj_0)",
		Run:   runTable1,
	})
	register(Experiment{
		ID:    "table4",
		Title: "Table IV: energy / performance / reliability comparison summary",
		Run:   runTable4,
	})
	register(Experiment{
		ID:    "table5",
		Title: "Table V: RoLo-E read characteristics under src2_2 and proj_0",
		Run:   runTable5,
	})
}

// gridResults runs every scheme over each trace at o's scale and array
// size, with the paper's 8 GiB of free space per disk and 64 KiB stripe
// unit, and indexes the reports by trace and scheme. Over mainTraces it
// is the Figure 10 grid, which fig10, table1, table4 and table5 all read
// (under one pool the leaf memo simulates it once); over lightTraces it
// is Figure 14's.
func gridResults(o Options, traces []string) (map[string]map[rolo.Scheme]rolo.Report, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	var leaves []leaf
	for _, tr := range traces {
		for _, s := range rolo.Schemes {
			l, err := profileLeaf(o, s, tr, 8, 64<<10)
			if err != nil {
				return nil, err
			}
			leaves = append(leaves, l)
		}
	}
	reps, err := o.runLeaves(leaves)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[rolo.Scheme]rolo.Report, len(traces))
	for i, l := range leaves {
		if out[l.trace] == nil {
			out[l.trace] = make(map[rolo.Scheme]rolo.Report, len(rolo.Schemes))
		}
		out[l.trace][l.cfg.Scheme] = reps[i]
	}
	return out, nil
}

func runFig10(o Options, w io.Writer) error {
	res, err := gridResults(o, mainTraces)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 10(a): energy consumption normalized to RAID10 (scale=%.2f, %d disks)\n",
		o.Scale, 2*o.Pairs)
	ta := &table{header: []string{"trace", "RAID10", "GRAID", "RoLo-P", "RoLo-R", "RoLo-E"}}
	for _, tr := range mainTraces {
		base := res[tr][rolo.SchemeRAID10].EnergyJ
		row := []string{tr}
		for _, s := range rolo.Schemes {
			row = append(row, f3(res[tr][s].EnergyJ/base))
		}
		ta.add(row...)
	}
	if err := ta.write(w); err != nil {
		return err
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 10(b): mean response time normalized to RAID10")
	tb := &table{header: []string{"trace", "RAID10", "GRAID", "RoLo-P", "RoLo-R", "RoLo-E"}}
	for _, tr := range mainTraces {
		base := res[tr][rolo.SchemeRAID10].MeanResponseMs
		row := []string{tr}
		for _, s := range rolo.Schemes {
			row = append(row, f3(res[tr][s].MeanResponseMs/base))
		}
		tb.add(row...)
	}
	if err := tb.write(w); err != nil {
		return err
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Raw values:")
	tc := &table{header: []string{"trace", "scheme", "energy(J)", "mean(ms)", "p99(ms)", "spins", "rot", "dest"}}
	for _, tr := range mainTraces {
		for _, s := range rolo.Schemes {
			r := res[tr][s]
			tc.add(tr, s.String(), fmt.Sprintf("%.0f", r.EnergyJ), f2(r.MeanResponseMs),
				f1(r.P99ResponseMs), fmt.Sprintf("%d", r.SpinCycles),
				fmt.Sprintf("%d", r.Rotations), fmt.Sprintf("%d", r.Destages))
		}
	}
	return tc.write(w)
}

func runTable1(o Options, w io.Writer) error {
	res, err := gridResults(o, mainTraces)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table I: number of disk spin up/down events (scale=%.2f, %d disks)\n",
		o.Scale, 2*o.Pairs)
	t := &table{header: []string{"trace", "RAID10", "GRAID", "RoLo-P", "RoLo-R", "RoLo-E"}}
	for _, tr := range mainTraces {
		row := []string{tr}
		for _, s := range rolo.Schemes {
			row = append(row, fmt.Sprintf("%d", res[tr][s].SpinCycles))
		}
		t.add(row...)
	}
	return t.write(w)
}

func runTable4(o Options, w io.Writer) error {
	res, err := gridResults(o, mainTraces)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table IV: comparison among RAID10, GRAID, RoLo-P, RoLo-R and RoLo-E")
	t := &table{header: []string{
		"scheme", "trace",
		"energy saved/RAID10", "energy saved/GRAID",
		"perf gained/RAID10", "perf gained/GRAID",
	}}
	for _, s := range []rolo.Scheme{rolo.SchemeRoLoP, rolo.SchemeRoLoR, rolo.SchemeRoLoE} {
		for _, tr := range mainTraces {
			r := res[tr][s]
			raid := res[tr][rolo.SchemeRAID10]
			graid := res[tr][rolo.SchemeGRAID]
			t.add(s.String(), tr,
				pct(1-r.EnergyJ/raid.EnergyJ),
				pct(1-r.EnergyJ/graid.EnergyJ),
				pct(1-r.MeanResponseMs/raid.MeanResponseMs),
				pct(1-r.MeanResponseMs/graid.MeanResponseMs),
			)
		}
	}
	if err := t.write(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Reliability (analytic, Section IV): RoLo-R > RAID10 > RoLo-P > GRAID;")
	fmt.Fprintln(w, "RoLo-P/R spin ~10x less often than GRAID; RoLo-E suits write-only workloads.")
	return nil
}

func runTable5(o Options, w io.Writer) error {
	res, err := gridResults(o, mainTraces)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table V: RoLo-E read behaviour under src2_2 and proj_0")
	t := &table{header: []string{"trace", "read ratio", "read hit rate", "burstiness", "perf gained/RAID10"}}
	burst := map[string]string{"src2_2": "very high", "proj_0": "very low"}
	readRatio := map[string]float64{"src2_2": 1 - 0.9962, "proj_0": 1 - 0.9490}
	for _, tr := range mainTraces {
		r := res[tr][rolo.SchemeRoLoE]
		raid := res[tr][rolo.SchemeRAID10]
		t.add(tr, pct(readRatio[tr]), pct(r.ReadHitRate), burst[tr],
			pct(1-r.MeanResponseMs/raid.MeanResponseMs))
	}
	return t.write(w)
}
