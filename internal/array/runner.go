package array

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

// Controller is a storage-scheme controller driving an Array. Submit is
// invoked at each request's arrival time; Close is invoked after the run
// fully drains so the controller can finalize bookkeeping (phase logs,
// outstanding destages).
type Controller interface {
	// Submit accepts a logical volume request at the current simulation
	// time (rec.At).
	Submit(rec trace.Record) error
	// Close finalizes accounting at the end of a run.
	Close(now sim.Time)
}

// ReplayResult carries run-wide observables computed by the runner.
type ReplayResult struct {
	// Horizon is the trace duration (last arrival time).
	Horizon sim.Time
	// EnergyAtHorizonJ is cumulative array energy at the horizon, the
	// figure used for all energy comparisons (schemes may drain
	// background work past the horizon).
	EnergyAtHorizonJ float64
	// DrainedAt is when the last event fired.
	DrainedAt sim.Time
}

// ScheduleArrivals installs recs as the engine's arrival series: submit
// runs with each record at its arrival time, in trace order. The records
// must be time-ordered and not in the engine's past. The arrivals take
// sequence numbers as if each were scheduled individually now, but only
// one of them sits beside the event heap at a time (sim.ScheduleSeries).
func ScheduleArrivals(eng *sim.Engine, recs []trace.Record, submit func(rec trace.Record)) error {
	err := eng.ScheduleSeries(len(recs),
		func(i int) sim.Time { return recs[i].At },
		func(i int, _ sim.Time) { submit(recs[i]) })
	if err != nil {
		return fmt.Errorf("array: trace arrivals: %w", err)
	}
	return nil
}

// Replay schedules every record into the controller at its arrival time,
// runs the engine until all work drains, and snapshots energy at the trace
// horizon. The records must be time-ordered.
func Replay(eng *sim.Engine, a *Array, ctrl Controller, recs []trace.Record) (ReplayResult, error) {
	var res ReplayResult
	if len(recs) == 0 {
		return res, fmt.Errorf("array: empty trace")
	}
	var submitErr error
	if err := ScheduleArrivals(eng, recs, func(rec trace.Record) {
		if submitErr != nil {
			return
		}
		if err := ctrl.Submit(rec); err != nil {
			submitErr = fmt.Errorf("array: submit record at %v: %w", rec.At, err)
			eng.Stop()
		}
	}); err != nil {
		return res, err
	}
	res.Horizon = recs[len(recs)-1].At
	if err := eng.Schedule(res.Horizon, func(sim.Time) {
		res.EnergyAtHorizonJ = a.TotalEnergyJ()
	}); err != nil {
		return res, err
	}
	eng.Run()
	if submitErr != nil {
		return res, submitErr
	}
	res.DrainedAt = eng.Now()
	ctrl.Close(eng.Now())
	return res, nil
}
