package experiments

import (
	"fmt"
	"io"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/baseline"
	"github.com/rolo-storage/rolo/internal/core"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "recovery",
		Title: "Section III-C/D: failure recovery — spin-ups per failure and logging continuity",
		Run:   runRecovery,
	})
}

// recoveryArray builds the shared array-plus-workload fixture of the
// failure scenarios.
func recoveryArray(o Options, extras int) (*array.Array, *sim.Engine, []trace.Record, error) {
	eng := sim.New()
	diskCap := scaleBytes(18.4*(1<<30), o.Scale)
	free := scaleBytes(8*(1<<30), o.Scale)
	data := diskCap - free
	data -= data % (64 << 10)
	geom := raid.Geometry{Pairs: o.Pairs, StripeUnitBytes: 64 << 10, DataBytesPerDisk: data}
	arr, err := array.New(eng, geom, disk.Ultrastar36Z15().WithCapacity(diskCap), extras)
	if err != nil {
		return nil, nil, nil, err
	}
	syn := trace.Uniform70Random64K(50, 2*sim.Minute, 33)
	syn.WriteWorkingSetBytes = geom.VolumeBytes() / 4
	recs, err := syn.Generate(geom.VolumeBytes())
	if err != nil {
		return nil, nil, nil, err
	}
	return arr, eng, recs, nil
}

// recoverOnDutyMirror fails RoLo-P's on-duty mirror mid-run.
func recoverOnDutyMirror(o Options) ([]string, error) {
	defer o.acquire()() // one pool slot per leaf simulation
	arr, eng, recs, err := recoveryArray(o, 0)
	if err != nil {
		return nil, err
	}
	ctrl, err := core.New(arr, core.FlavorP, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := array.ScheduleArrivals(eng, recs, func(rec trace.Record) { _ = ctrl.Submit(rec) }); err != nil {
		return nil, err
	}
	eng.RunUntil(30 * sim.Second)
	before := arr.TotalSpinCycles()
	plan, err := ctrl.FailMirror(ctrl.OnDuty())
	if err != nil {
		return nil, err
	}
	eng.Run()
	return []string{"RoLo-P", "on-duty mirror", fmt.Sprintf("%d", arr.TotalSpinCycles()-before),
		fmt.Sprintf("%v", plan.NewOnDuty >= 0),
		fmt.Sprintf("duty handed to M%d at once", plan.NewOnDuty)}, nil
}

// recoverPrimary fails a RoLo-P primary.
func recoverPrimary(o Options) ([]string, error) {
	defer o.acquire()() // one pool slot per leaf simulation
	arr, eng, recs, err := recoveryArray(o, 0)
	if err != nil {
		return nil, err
	}
	ctrl, err := core.New(arr, core.FlavorP, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := array.ScheduleArrivals(eng, recs, func(rec trace.Record) { _ = ctrl.Submit(rec) }); err != nil {
		return nil, err
	}
	eng.RunUntil(30 * sim.Second)
	before := arr.TotalSpinCycles()
	victim := (ctrl.OnDuty() + 1) % arr.Geom.Pairs
	plan, err := ctrl.FailPrimary(victim)
	if err != nil {
		return nil, err
	}
	eng.Run()
	return []string{"RoLo-P", fmt.Sprintf("primary P%d", victim),
		fmt.Sprintf("%d", arr.TotalSpinCycles()-before), "true",
		fmt.Sprintf("woke mirror + %d log-source logger(s)", len(plan.LogSourceLoggers))}, nil
}

// recoverGRAIDLogDisk fails GRAID's dedicated log disk.
func recoverGRAIDLogDisk(o Options) ([]string, error) {
	defer o.acquire()() // one pool slot per leaf simulation
	arr, eng, recs, err := recoveryArray(o, 1)
	if err != nil {
		return nil, err
	}
	gcfg := baseline.DefaultGRAIDConfig()
	gcfg.LogCapacityBytes = scaleBytes(16*(1<<30), o.Scale)
	ctrl, err := baseline.NewGRAID(arr, gcfg)
	if err != nil {
		return nil, err
	}
	if err := array.ScheduleArrivals(eng, recs, func(rec trace.Record) { _ = ctrl.Submit(rec) }); err != nil {
		return nil, err
	}
	eng.RunUntil(30 * sim.Second)
	before := arr.TotalSpinCycles()
	exposed := ctrl.FailLogDisk()
	eng.Run()
	return []string{"GRAID", "dedicated log disk",
		fmt.Sprintf("%d", arr.TotalSpinCycles()-before), "false",
		fmt.Sprintf("%.0f MB exposed; every mirror woke", float64(exposed)/(1<<20))}, nil
}

// runRecovery quantifies the paper's single-point-of-failure argument: a
// failed on-duty logger in RoLo wakes at most one disk and logging never
// stops, while GRAID's dedicated log disk failing forces every mirror up.
// The three failure scenarios are independent simulations and fan out
// across the option pool.
func runRecovery(o Options, w io.Writer) error {
	if err := o.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "Failure recovery (scale=%.2f, %d disks): spin-ups caused by one failure\n\n",
		o.Scale, 2*o.Pairs)

	scenarios := []func(Options) ([]string, error){
		recoverOnDutyMirror,
		recoverPrimary,
		recoverGRAIDLogDisk,
	}
	rows := make([][]string, len(scenarios))
	if err := runPar(o, len(scenarios), func(i int) error {
		row, err := scenarios[i](o)
		rows[i] = row
		return err
	}); err != nil {
		return err
	}

	t := &table{header: []string{"scheme", "failure", "spin-ups", "logging continues", "notes"}}
	for _, row := range rows {
		t.add(row...)
	}
	if err := t.write(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "RoLo replaces a failed logger instantly (no single point of failure,")
	fmt.Fprintln(w, "Section III-D); GRAID's log-disk failure exposes every logged write and")
	fmt.Fprintln(w, "wakes the whole mirror set for an emergency destage.")
	return nil
}
