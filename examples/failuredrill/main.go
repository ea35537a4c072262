// Failuredrill walks through the paper's Section III-C recovery story on
// a live simulation: it kills the on-duty logger mid-workload and shows
// that logging never stops, then kills a primary and shows that only the
// essential disks wake, and finally rebuilds the replacement in the
// background while foreground traffic continues.
package main

import (
	"fmt"
	"log"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/core"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

func main() {
	eng := sim.New()
	geom := raid.Geometry{Pairs: 6, StripeUnitBytes: 64 << 10, DataBytesPerDisk: 512 << 20}
	arr, err := array.New(eng, geom, disk.Ultrastar36Z15().WithCapacity(768<<20), 0)
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := core.New(arr, core.FlavorP, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// A steady write workload runs throughout the drill.
	syn := trace.Uniform70Random64K(80, 3*sim.Minute, 5)
	syn.WriteWorkingSetBytes = geom.VolumeBytes() / 4
	recs, err := syn.Generate(geom.VolumeBytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := array.ScheduleArrivals(eng, recs, func(rec trace.Record) {
		if err := ctrl.Submit(rec); err != nil {
			log.Fatalf("submit at %v: %v", rec.At, err)
		}
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== t=30s: the on-duty logger dies ==")
	eng.RunUntil(30 * sim.Second)
	duty := ctrl.OnDuty()
	plan, err := ctrl.FailMirror(duty)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failed %s; duty handed to M%d immediately — no write was refused\n",
		plan.Failed, plan.NewOnDuty)
	fmt.Printf("disks woken for recovery: %d (the new logger only)\n\n", len(plan.SpunUp))

	fmt.Println("== t=60s: a primary dies ==")
	eng.RunUntil(60 * sim.Second)
	victim := (ctrl.OnDuty() + 2) % geom.Pairs
	plan2, err := ctrl.FailPrimary(victim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failed %s; woke its mirror plus %d logger(s) holding its recent writes\n",
		plan2.Failed, len(plan2.LogSourceLoggers))
	fmt.Printf("rebuild volume: %.0f MB planned (data region + live log extents); the rebuild copies only the %.0f MB data region\n\n",
		float64(plan2.RebuildBytes)/(1<<20), float64(geom.DataBytesPerDisk)/(1<<20))

	fmt.Println("== t=70s: background rebuilds begin ==")
	eng.RunUntil(70 * sim.Second)
	rebuilt := 0
	if err := ctrl.Rebuild(duty, true, func(now sim.Time) {
		rebuilt++
		fmt.Printf("mirror M%d rebuilt at %v\n", duty, now)
	}); err != nil {
		log.Fatal(err)
	}
	if err := ctrl.Rebuild(victim, false, func(now sim.Time) {
		rebuilt++
		fmt.Printf("primary P%d rebuilt at %v\n", victim, now)
	}); err != nil {
		log.Fatal(err)
	}
	eng.Run()
	if err := ctrl.CheckErr(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndrill complete: %d rebuilds, %d requests served\n",
		rebuilt, ctrl.Responses().Count())
	fmt.Printf("responses: mean %.1f ms, p95 %.1f ms — the mean carries the\n",
		ctrl.Responses().Mean(), ctrl.Responses().Percentile(95))
	fmt.Println("spin-up stalls of requests that hit the failed pairs during the")
	fmt.Println("drill; the p95 shows everything else ran at normal latency because")
	fmt.Println("rebuild and destage I/O stay at background priority in idle slots.")
}
