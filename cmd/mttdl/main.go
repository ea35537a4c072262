// Command mttdl computes Mean Time To Data Loss for the paper's five
// schemes, printing both the closed-form approximations (Equations 1-5)
// and the exact values from the absorbing Markov chains of Section IV.
//
// Usage:
//
//	mttdl                     # table over MTTR 1..7 days at lambda=1e-5/h
//	mttdl -lambda 2e-5 -mttr 3
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/rolo-storage/rolo/internal/reliability"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mttdl:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		lambda = flag.Float64("lambda", 1e-5, "disk failure rate per hour")
		mttr   = flag.Float64("mttr", 0, "single MTTR in days (0 = sweep 1..7)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *lambda <= 0 {
		return fmt.Errorf("lambda must be positive")
	}

	days := []float64{1, 2, 3, 4, 5, 6, 7}
	if *mttr > 0 {
		days = []float64{*mttr}
	}

	fmt.Printf("MTTDL in years (lambda = %g/h); closed form / exact CTMC\n\n", *lambda)
	fmt.Printf("%-8s", "MTTR(d)")
	for _, m := range reliability.Models {
		fmt.Printf("  %-19s", m.Scheme)
	}
	fmt.Println()
	for _, d := range days {
		mu := 1 / (d * 24)
		fmt.Printf("%-8g", d)
		for _, m := range reliability.Models {
			exact, err := m.Chain(*lambda, mu).MTTDL()
			if err != nil {
				return fmt.Errorf("%s: %w", m.Scheme, err)
			}
			fmt.Printf("  %8.0f / %8.0f", m.Closed(*lambda, mu)/reliability.HoursPerYear,
				exact/reliability.HoursPerYear)
		}
		fmt.Println()
	}
	fmt.Println("\nNote: RoLo-E assumes sleeping disks do not fail (Figure 8); its MTTDL")
	fmt.Println("is only meaningful for all-write workloads (Section IV of the paper).")
	return nil
}
