package experiments

import (
	"fmt"
	"io"
	"slices"

	"github.com/rolo-storage/rolo/internal/reliability"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Figure 9: MTTDL vs MTTR for RAID10, GRAID, RoLo-P, RoLo-R",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "eqs",
		Title: "Equations (1)-(5): closed-form MTTDL vs exact CTMC solutions",
		Run:   runEqs,
	})
}

func runFig9(o Options, w io.Writer) error {
	days := []float64{1, 2, 3, 4, 5, 6, 7}
	series, err := reliability.Fig9(days)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 9: MTTDL (years) as a function of MTTR (days), lambda = 1e-5/h")
	t := &table{header: []string{"MTTR(d)"}}
	for _, s := range series {
		t.header = append(t.header, s.Scheme)
	}
	for i, d := range days {
		row := []string{f1(d)}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.0f", s.Points[i].MTTDLYears))
		}
		t.add(row...)
	}
	return t.write(w)
}

func runEqs(o Options, w io.Writer) error {
	const lambda = 1e-5
	fmt.Fprintln(w, "MTTDL (hours) at lambda = 1e-5/h: paper closed forms vs exact CTMC")
	t := &table{header: []string{"scheme", "MTTR", "closed-form", "CTMC", "ratio"}}
	// Paper order: Equations (1)-(5).
	models := slices.Clone(reliability.Models)
	slices.SortFunc(models, func(a, b reliability.Model) int { return a.Equation - b.Equation })
	for _, m := range models {
		for _, days := range []float64{1, 7} {
			mu := 1 / (days * 24)
			closed := m.Closed(lambda, mu)
			exact, err := m.Chain(lambda, mu).MTTDL()
			if err != nil {
				return fmt.Errorf("%s: %w", m.Scheme, err)
			}
			t.add(m.Scheme, fmt.Sprintf("%gd", days),
				fmt.Sprintf("%.4g", closed), fmt.Sprintf("%.4g", exact),
				fmt.Sprintf("%.4f", exact/closed))
		}
	}
	return t.write(w)
}
