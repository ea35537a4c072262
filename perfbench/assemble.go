package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/baseline"
	"github.com/rolo-storage/rolo/internal/core"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/invariant"
	"github.com/rolo-storage/rolo/internal/metrics"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/trace"
)

// This file rebuilds rolo.Run from the layers' public constructors so the
// traced pass can put timers at each boundary. It must produce the same
// reports as rolo.Run; the traced pass checks that on every run and the
// tests check it field by field.

// assembly is one simulation's engine, array and scheme controller.
type assembly struct {
	eng  *sim.Engine
	arr  *array.Array
	ctrl array.Controller
	resp *metrics.ResponseStats

	graid *baseline.GRAID
	rolo  *core.RoLo
	roloE *core.RoLoE
}

// build runs sim.New, array.New and the scheme constructor.
func build(cfg rolo.Config) (*assembly, error) {
	a := &assembly{eng: sim.New()}
	extras := 0
	if cfg.Scheme == rolo.SchemeGRAID {
		extras = 1
	}
	var err error
	if a.arr, err = array.New(a.eng, cfg.Geometry(), cfg.Disk, extras); err != nil {
		return nil, err
	}
	switch cfg.Scheme {
	case rolo.SchemeRAID10:
		c := baseline.NewRAID10(a.arr)
		a.ctrl, a.resp = c, c.Responses()
	case rolo.SchemeGRAID:
		if a.graid, err = baseline.NewGRAID(a.arr, cfg.GRAID); err != nil {
			return nil, err
		}
		a.ctrl, a.resp = a.graid, a.graid.Responses()
	case rolo.SchemeRoLoP, rolo.SchemeRoLoR:
		flavor := core.FlavorP
		if cfg.Scheme == rolo.SchemeRoLoR {
			flavor = core.FlavorR
		}
		if a.rolo, err = core.New(a.arr, flavor, cfg.RoLo); err != nil {
			return nil, err
		}
		a.ctrl, a.resp = a.rolo, a.rolo.Responses()
	case rolo.SchemeRoLoE:
		if a.roloE, err = core.NewE(a.arr, cfg.RoLoE); err != nil {
			return nil, err
		}
		a.ctrl, a.resp = a.roloE, a.roloE.Responses()
	default:
		return nil, fmt.Errorf("unknown scheme %v", cfg.Scheme)
	}
	return a, nil
}

// isCore reports whether the scheme's controller lives in package core.
func isCore(s rolo.Scheme) bool {
	return s == rolo.SchemeRoLoP || s == rolo.SchemeRoLoR || s == rolo.SchemeRoLoE
}

// timedController times every Submit and samples the engine's pending
// event count as each request arrives.
type timedController struct {
	inner       array.Controller
	eng         *sim.Engine
	submit      callAgg
	peakPending int
}

func (c *timedController) Submit(rec trace.Record) error {
	c.peakPending = max(c.peakPending, c.eng.Pending())
	t := time.Now()
	err := c.inner.Submit(rec)
	c.submit.add(time.Since(t))
	return err
}

func (c *timedController) Close(now sim.Time) { c.inner.Close(now) }

// timedSink counts and times every Emit on the producer side and
// forwards Flush, which rolo.Run's contract requires of a sink wrapper.
type timedSink struct {
	inner telemetry.Sink
	emit  callAgg
}

func (s *timedSink) Emit(ev telemetry.Event) {
	t := time.Now()
	s.inner.Emit(ev)
	s.emit.add(time.Since(t))
}

func (s *timedSink) Flush() error {
	if f, ok := s.inner.(telemetry.Flusher); ok {
		return f.Flush()
	}
	return nil
}

// runStats is what one traced simulation measured.
type runStats struct {
	scheme      rolo.Scheme
	records     int64
	setup       time.Duration // array.New + scheme constructor
	replay      time.Duration // array.Replay
	submit      callAgg
	emit        callAgg
	peakPending int
	events      uint64
	// mallocs and allocBytes are MemStats deltas across Replay, taken
	// only when the run has the process to itself.
	mallocs, allocBytes uint64

	ios, devWritten, fgIOs, bgIOs, spinUps int64
	userWritten, writes                    int64
	rotations, coreDestages, graidDestages int64
	coreDirect, coreWrites                 int64
	sanEvents, sanSweeps                   uint64
}

// runProbe says where a traced run records its spans.
type runProbe struct {
	spans    *spanLog
	parent   int
	run      int
	memstats bool
}

// assemble simulates cfg over recs exactly as rolo.Run does, with timers
// at the layer boundaries.
func assemble(cfg rolo.Config, recs []trace.Record, p runProbe) (rep rolo.Report, st runStats, err error) {
	if err := cfg.Validate(); err != nil {
		return rep, st, err
	}
	if err := trace.Validate(recs, cfg.VolumeBytes()); err != nil {
		return rep, st, err
	}
	if cfg.RAMCacheBlocks > 0 {
		return rep, st, errors.New("the traced assembly has no RAM cache")
	}
	var sink telemetry.Sink
	var ts *timedSink
	if cfg.Telemetry.Sink != nil {
		ts = &timedSink{inner: cfg.Telemetry.Sink}
		sink = ts
		defer func() {
			if ferr := ts.Flush(); ferr != nil {
				err = errors.Join(err, fmt.Errorf("flushing telemetry sink: %w", ferr))
			}
			st.emit = ts.emit
		}()
	}
	st.scheme = cfg.Scheme
	st.records = int64(len(recs))
	for _, r := range recs {
		if r.Op == trace.Write {
			st.userWritten += r.Size
			st.writes++
		}
	}

	id := p.spans.begin("array.setup", p.parent, p.run)
	t0 := time.Now()
	a, err := build(cfg)
	st.setup = time.Since(t0)
	p.spans.end(id)
	if err != nil {
		return rep, st, err
	}
	eng, arr, ctrl := a.eng, a.arr, a.ctrl

	var san *invariant.Sanitizer
	if cfg.Check {
		san = invariant.New(cfg.Scheme.String(), eng)
		if cfg.CheckSweepEvery > 0 {
			san.SetSweepEvery(cfg.CheckSweepEvery)
		}
		if src, ok := ctrl.(invariant.Source); ok {
			san.SetSource(src)
		}
		if at, ok := ctrl.(invariant.Attachable); ok {
			at.SetSanitizer(san.Audit())
		}
		san.WatchDisks(arr.AllDisks(), cfg.Scheme == rolo.SchemeRAID10)
		san.Install()
	}
	gauges, _ := ctrl.(telemetry.GaugeSource)
	tel := telemetry.NewRecorder(sink)
	if in, ok := ctrl.(telemetry.Instrumented); ok {
		in.SetTelemetry(tel)
	}
	if tel.Enabled() {
		for _, d := range arr.AllDisks() {
			d.AddStateChangeHook(func(d *disk.Disk, _, to disk.PowerState, now sim.Time) {
				switch to {
				case disk.SpinningUp:
					tel.SpinUp(now, d.ID())
				case disk.SpinningDown:
					tel.SpinDown(now, d.ID())
				}
			})
		}
	}
	var prober *telemetry.Prober
	if iv := cfg.Telemetry.ProbeInterval; iv > 0 && len(recs) > 0 {
		prober = telemetry.StartProber(eng, tel, arr.AllDisks(), gauges, iv, recs[len(recs)-1].At)
	}

	tc := &timedController{inner: ctrl, eng: eng}
	var m0, m1 runtime.MemStats
	if p.memstats {
		runtime.ReadMemStats(&m0)
	}
	id = p.spans.begin("sim.replay", p.parent, p.run)
	t0 = time.Now()
	res, err := array.Replay(eng, arr, tc, recs)
	st.replay = time.Since(t0)
	p.spans.end(id)
	if p.memstats {
		runtime.ReadMemStats(&m1)
		st.mallocs, st.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	}
	st.submit, st.peakPending, st.events = tc.submit, tc.peakPending, eng.Fired()
	if err != nil {
		return rep, st, err
	}
	if san != nil {
		san.Final(eng.Now())
		rep.SanitizerEvents = san.Events()
		rep.SanitizerSweeps = san.Sweeps()
		st.sanEvents, st.sanSweeps = rep.SanitizerEvents, rep.SanitizerSweeps
		if err := san.Err(); err != nil {
			return rep, st, fmt.Errorf("sanitizer: %w", err)
		}
	}

	resp := a.resp
	rep.Scheme = cfg.Scheme
	rep.Requests = resp.Count()
	rep.EnergyJ = res.EnergyAtHorizonJ
	rep.EnergyAtDrainJ = arr.TotalEnergyJ()
	rep.MeanResponseMs = resp.Mean()
	rep.P95ResponseMs = resp.Percentile(95)
	rep.P99ResponseMs = resp.Percentile(99)
	rep.MaxResponseMs = resp.Max().Milliseconds()
	rep.SpinCycles = arr.TotalSpinCycles()
	rep.Horizon = res.Horizon
	rep.DrainedAt = res.DrainedAt
	rep.ReadLatency = breakdown(resp.Reads())
	rep.WriteLatency = breakdown(resp.Writes())
	rep.AllHist = *resp.All().Histogram()
	rep.ReadHist = *resp.Reads().Histogram()
	rep.WriteHist = *resp.Writes().Histogram()
	rep.StateSeconds = make(map[string]float64)
	for s, dur := range array.StateDurations(arr.AllDisks()) {
		rep.StateSeconds[s.String()] = dur.Seconds()
	}
	for _, d := range arr.AllDisks() {
		ds := d.Stats()
		per := make(map[string]float64)
		for s, dur := range ds.StateDur {
			per[s.String()] = dur.Seconds()
		}
		rep.DiskStateSeconds = append(rep.DiskStateSeconds, per)
		st.ios += ds.IOsCompleted
		st.devWritten += ds.BytesWritten
		st.fgIOs += ds.ForegroundIOs
		st.bgIOs += ds.BackgroundIOs
		st.spinUps += int64(ds.SpinUps)
	}
	if prober != nil {
		rep.ProbeSamples = prober.Samples()
		rep.PeakLogOccupancy = prober.PeakOccupancy()
		rep.PeakDestageBacklogBytes = prober.PeakBacklog()
		rep.PeakSpinningDisks = prober.PeakSpinning()
	}
	switch {
	case a.graid != nil:
		rep.Destages = a.graid.Destages()
		rep.DirectWrites = int64(a.graid.LogOverflows())
		rep.DestagingIntervalRatio = a.graid.Phases().DestagingIntervalRatio()
		rep.DestagingEnergyRatio = a.graid.Phases().DestagingEnergyRatio()
		st.graidDestages = int64(rep.Destages)
	case a.rolo != nil:
		rep.Rotations = a.rolo.Rotations()
		rep.DirectWrites = int64(a.rolo.DirectWrites())
		err = a.rolo.CheckErr()
	case a.roloE != nil:
		rep.Rotations = a.roloE.Rotations()
		rep.Destages = a.roloE.Destages()
		rep.DirectWrites = a.roloE.Overflows()
		rep.ReadHitRate = a.roloE.ReadHitRate()
		rep.DestagingIntervalRatio = a.roloE.Phases().DestagingIntervalRatio()
		rep.DestagingEnergyRatio = a.roloE.Phases().DestagingEnergyRatio()
		st.coreDestages = int64(rep.Destages)
	}
	if isCore(cfg.Scheme) {
		st.rotations = int64(rep.Rotations)
		st.coreDirect, st.coreWrites = rep.DirectWrites, st.writes
	}
	return rep, st, err
}

func breakdown(c *metrics.ClassStats) rolo.LatencyBreakdown {
	return rolo.LatencyBreakdown{
		Count:  c.Count(),
		MeanMs: c.Mean(),
		P95Ms:  c.Percentile(95),
		P99Ms:  c.Percentile(99),
		MaxMs:  c.Max().Milliseconds(),
	}
}

// setupAllocs is the mean number of heap allocations build makes per
// config, counted once each after a warm-up build, while nothing else
// runs. The count is exact: construction is deterministic.
func setupAllocs(cfgs []rolo.Config) (float64, error) {
	if len(cfgs) == 0 {
		return 0, nil
	}
	var total uint64
	var m0, m1 runtime.MemStats
	for _, cfg := range cfgs {
		if _, err := build(cfg); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&m0)
		_, err := build(cfg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, err
		}
		total += m1.Mallocs - m0.Mallocs
	}
	return float64(total) / float64(len(cfgs)), nil
}
