// Reliability reproduces the paper's Section IV argument end to end: it
// computes analytic MTTDL for every scheme, measures disk-spin frequency
// by simulation, and combines the two views the way Table I and Figure 9
// do — MTTDL alone favours RoLo-E, but spin counts reveal which schemes
// actually age their disks.
package main

import (
	"fmt"
	"log"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/reliability"
)

func main() {
	fmt.Println("== Analytic MTTDL (four-disk model, lambda = 1e-5/h, MTTR = 3 days) ==")
	const lambda, mttrDays = 1e-5, 3.0
	mu := 1 / (mttrDays * 24)
	for _, m := range reliability.Models {
		years, err := m.Chain(lambda, mu).MTTDL()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-7s %8.0f years\n", m.Scheme, years/reliability.HoursPerYear)
	}

	fmt.Println("\n== Disk-spin frequency by simulation (src2_2, scaled) ==")
	const scale = 0.02
	cfg := rolo.DefaultConfig(rolo.SchemeRAID10)
	cfg.Pairs = 10
	gib := func(v float64) int64 {
		b := int64(v * scale * float64(int64(1)<<30))
		b -= b % (1 << 20)
		return b
	}
	cfg.Disk.CapacityBytes = gib(18.4)
	cfg.FreeBytesPerDisk = gib(8)
	cfg.GRAID.LogCapacityBytes = gib(16)
	recs, err := rolo.GenerateProfile("src2_2", cfg, scale)
	if err != nil {
		log.Fatal(err)
	}
	spins := map[rolo.Scheme]int{}
	for _, s := range rolo.Schemes {
		c := cfg
		c.Scheme = s
		rep, err := rolo.Run(c, recs)
		if err != nil {
			log.Fatal(err)
		}
		spins[s] = rep.SpinCycles
		fmt.Printf("  %-7s %6d spin cycles\n", s, rep.SpinCycles)
	}

	fmt.Println("\n== Combined reading (the paper's Section IV conclusion) ==")
	fmt.Println("RoLo-R tops MTTDL and spins ~10x less than GRAID: the most reliable pick.")
	fmt.Printf("RoLo-E's MTTDL looks best on paper but its %d spin cycles (vs GRAID's %d)\n",
		spins[rolo.SchemeRoLoE], spins[rolo.SchemeGRAID])
	fmt.Println("raise the real failure rate — trust it only for write-dominant workloads.")
}
