package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/fleet"
	"github.com/rolo-storage/rolo/internal/telemetry"
)

// passAcc accumulates the traced pass over all its iterations.
type passAcc struct {
	iters      int
	cpus       []float64 // process CPU seconds per traced iteration
	spans      *spanLog
	nextRun    int
	genTime    time.Duration
	genRecords int64

	runs        int
	requests    int64
	events      uint64
	setup       time.Duration
	replay      time.Duration
	coreSubmit  callAgg
	baseSubmit  callAgg
	emit        callAgg
	peakPending int
	// mallocs and allocBytes span every Replay of a serial workload, or
	// the whole shard phase of the fleet (whose shards overlap).
	mallocs, allocBytes uint64

	ios, devWritten, fgIOs, bgIOs, spinUps int64
	userWritten                            int64
	rotations, coreDestages, graidDestages int64
	coreDirect, coreWrites                 int64
	sanEvents, sanSweeps                   uint64

	journalBytes int64
	journalClose time.Duration
	journalRuns  int
	peakRing     int
	dropped      int64

	shardMs []float64
	fold    callAgg
	// firstShards keeps the first iteration's shard reports so a sample
	// can be rerun through fleet.Spec.RunShard.
	firstShards []rolo.Report
}

func (a *passAcc) addRun(st runStats) {
	a.runs++
	a.requests += st.records
	a.events += st.events
	a.setup += st.setup
	a.replay += st.replay
	if isCore(st.scheme) {
		a.coreSubmit.merge(st.submit)
	} else {
		a.baseSubmit.merge(st.submit)
	}
	a.emit.merge(st.emit)
	a.peakPending = max(a.peakPending, st.peakPending)
	a.mallocs += st.mallocs
	a.allocBytes += st.allocBytes
	a.ios += st.ios
	a.devWritten += st.devWritten
	a.fgIOs += st.fgIOs
	a.bgIOs += st.bgIOs
	a.spinUps += st.spinUps
	a.userWritten += st.userWritten
	a.rotations += st.rotations
	a.coreDestages += st.coreDestages
	a.graidDestages += st.graidDestages
	a.coreDirect += st.coreDirect
	a.coreWrites += st.coreWrites
	a.sanEvents += st.sanEvents
	a.sanSweeps += st.sanSweeps
}

func (a *passAcc) timeGen(parent int) genTimer {
	return func(gen func() (int, error)) error {
		id := a.spans.begin("trace.generate", parent, 0)
		t := time.Now()
		n, err := gen()
		a.genTime += time.Since(t)
		a.genRecords += int64(n)
		a.spans.end(id)
		return err
	}
}

// sameReport checks that a traced run reproduced the untraced report.
func sameReport(got, want *rolo.Report) error {
	if got.Requests != want.Requests || got.EnergyAtDrainJ != want.EnergyAtDrainJ ||
		got.MeanResponseMs != want.MeanResponseMs {
		return fmt.Errorf("traced %v run differs from rolo.Run: requests %d/%d, energy at drain %v/%v J, mean %v/%v ms",
			got.Scheme, got.Requests, want.Requests, got.EnergyAtDrainJ, want.EnergyAtDrainJ,
			got.MeanResponseMs, want.MeanResponseMs)
	}
	return nil
}

// tracedReplayIteration runs one iteration of a replay workload through
// the traced assembly, checking each run against ref.
func tracedReplayIteration(w workload, seed int64, scratch string, ref []rolo.Report, acc *passAcc, v *verifier) {
	isolate()
	wid := acc.spans.begin("workload", 0, 0)
	c0 := processCPU()
	defer func() {
		acc.spans.end(wid)
		acc.cpus = append(acc.cpus, (processCPU() - c0).Seconds())
		acc.iters++
	}()
	it, err := w.setup(seed, acc.timeGen(wid))
	if err != nil {
		v.check(0, fmt.Errorf("setup: %w", err), nil)
		return
	}
	for i, in := range it.runs {
		acc.nextRun++
		run := acc.nextRun
		rid := acc.spans.begin("run", wid, run)
		rep, st, err := tracedRun(w, in, scratch, runProbe{spans: acc.spans, parent: rid, run: run, memstats: true}, acc)
		acc.spans.end(rid)
		if err == nil && i < len(ref) {
			err = sameReport(&rep, &ref[i])
		}
		if v.check(i, err, nil) {
			acc.addRun(st)
		}
	}
}

// tracedRun is one replay simulation; on the observed workload its
// journal is opened before, and closed, timed and verified after.
func tracedRun(w workload, in runInput, scratch string, p runProbe, acc *passAcc) (rep rolo.Report, st runStats, err error) {
	if !w.observed {
		return assemble(in.cfg, in.recs, p)
	}
	m, drain, err := journaled(filepath.Join(scratch, "traced"), p.spans, p.parent, p.run, func(sink telemetry.Sink) error {
		cfg := in.cfg
		cfg.Telemetry.Sink = sink
		rep, st, err = assemble(cfg, in.recs, p)
		return err
	})
	acc.journalClose += drain
	acc.journalRuns++
	if err != nil {
		return rep, st, err
	}
	for _, s := range m.Segments {
		acc.journalBytes += s.Bytes
	}
	acc.peakRing = max(acc.peakRing, m.Writer.PeakOccupancy)
	acc.dropped += m.Writer.Dropped
	return rep, st, nil
}

// tracedFleetIteration runs every shard through the traced assembly on
// nproc workers, folds the reports in shard order through a
// fleet.Cluster, and checks the cluster report against ref.
func tracedFleetIteration(w workload, seed int64, ref *fleet.ClusterReport, acc *passAcc, v *verifier) {
	isolate()
	wid := acc.spans.begin("workload", 0, 0)
	c0 := processCPU()
	defer func() {
		acc.spans.end(wid)
		acc.cpus = append(acc.cpus, (processCPU() - c0).Seconds())
		acc.iters++
	}()
	it, err := w.setup(seed, nil)
	if err != nil {
		v.check(0, fmt.Errorf("setup: %w", err), nil)
		return
	}
	spec := it.spec
	n := spec.Shards
	reps := make([]rolo.Report, n)
	stats := make([]runStats, n)
	errs := make([]error, n)
	durs := make([]time.Duration, n)
	gens := make([]time.Duration, n)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				sid := acc.spans.begin("fleet.shard", wid, i+1)
				ts := time.Now()
				cfg, syn := spec.ShardConfig(i)
				gid := acc.spans.begin("trace.generate", sid, i+1)
				tg := time.Now()
				recs, err := syn.Generate(cfg.VolumeBytes())
				gens[i] = time.Since(tg)
				acc.spans.end(gid)
				if err == nil {
					reps[i], stats[i], err = assemble(cfg, recs, runProbe{spans: acc.spans, parent: sid, run: i + 1})
				}
				errs[i] = err
				durs[i] = time.Since(ts)
				acc.spans.end(sid)
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	acc.mallocs += m1.Mallocs - m0.Mallocs
	acc.allocBytes += m1.TotalAlloc - m0.TotalAlloc

	if err := errors.Join(errs...); err != nil {
		v.check(0, err, nil)
		return
	}
	fid := acc.spans.begin("fleet.fold", wid, 0)
	worstK := spec.WorstK
	if worstK == 0 {
		worstK = 8 // fleet.Run's default digest size
	}
	c := fleet.NewCluster(worstK)
	for i := range reps {
		t := time.Now()
		c.Fold(i, &reps[i])
		acc.fold.add(time.Since(t))
	}
	acc.spans.end(fid)
	cr := c.Report()
	err = checkCluster(&cr, n)
	if err == nil && ref != nil && (cr.Requests != ref.Requests || cr.MeanResponseMs != ref.MeanResponseMs || cr.EnergyJ != ref.EnergyJ) {
		err = fmt.Errorf("traced fleet differs from fleet.Run: requests %d/%d, mean %v/%v ms, energy %v/%v J",
			cr.Requests, ref.Requests, cr.MeanResponseMs, ref.MeanResponseMs, cr.EnergyJ, ref.EnergyJ)
	}
	if !v.check(0, err, nil) {
		return
	}
	for i := range stats {
		acc.addRun(stats[i])
		acc.shardMs = append(acc.shardMs, float64(durs[i].Nanoseconds())/1e6)
		acc.genTime += gens[i]
		acc.genRecords += stats[i].records
	}
	if acc.firstShards == nil {
		acc.firstShards = append([]rolo.Report(nil), reps[:min(n, 2*len(spec.Schemes))]...)
	}
}

// runtimeCPU reads the runtime/metrics counters the pass reports.
type runtimeCPU struct {
	gcCycles              uint64
	gcCPU, totalCPU, idle float64
}

func readRuntimeCPU() runtimeCPU {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCPU{
		gcCycles: s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		idle:     s[3].Value.Float64(),
	}
}

// perLayer runs the untraced reference pass and then the traced pass,
// each for half the budget, and reports the per-layer metrics.
func perLayer(w workload, seed int64, budget time.Duration, scratch, outDir string, v *verifier) (result, error) {
	untraced := untracedLoop(w, seed, budget/2, scratch, v)
	var untracedCPU []float64
	for _, it := range untraced {
		untracedCPU = append(untracedCPU, it.cpu.Seconds())
	}
	ref := untraced[0]

	it, err := w.setup(seed, nil)
	if err != nil {
		return result{}, err
	}
	spec := it.spec
	var cfgs []rolo.Config
	if w.shards > 0 {
		for i := range spec.Schemes {
			cfg, _ := spec.ShardConfig(i)
			cfgs = append(cfgs, cfg)
		}
	} else {
		for _, in := range it.runs[:len(rolo.Schemes)] {
			cfgs = append(cfgs, in.cfg)
		}
	}
	allocs, err := setupAllocs(cfgs)
	if err != nil {
		return result{}, err
	}

	acc := &passAcc{spans: newSpanLog()}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	rt0 := readRuntimeCPU()
	start := time.Now()
	for acc.iters == 0 || time.Since(start) < budget/2 {
		if w.shards > 0 {
			tracedFleetIteration(w, seed, ref.cluster, acc, v)
		} else {
			tracedReplayIteration(w, seed, scratch, ref.reports, acc, v)
		}
	}
	rt1 := readRuntimeCPU()
	pprof.StopCPUProfile()

	if w.shards > 0 {
		// fleet.Run hides its shards; rerun a sample through the public
		// per-shard entry point and hold the traced reports to it.
		for i := range acc.firstShards {
			want, err := spec.RunShard(i)
			if err == nil {
				err = sameReport(&acc.firstShards[i], &want)
			}
			v.check(i, err, nil)
		}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	profPath := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", w.name, seed))
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	m := layerMetrics(acc, allocs, rt0, rt1, shares, samples)
	m["trace_overhead"] = metric{median(acc.cpus) / median(untracedCPU), "ratio"}
	if err := writeSpans(outDir, w.name, seed, acc, m); err != nil {
		return result{}, err
	}
	return result{Metrics: m}, nil
}

// layerMetrics turns the pass totals into the per-layer metrics. Counts
// of simulated work are per workload iteration, so they repeat exactly
// for a seed whatever the budget.
func layerMetrics(a *passAcc, setupAllocs float64, rt0, rt1 runtimeCPU, shares map[string]float64, samples int64) map[string]metric {
	iters := float64(max(a.iters, 1))
	req := float64(max(a.requests, 1))
	runs := float64(max(a.runs, 1))
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	m := map[string]metric{
		"trace.gen_s":                 {a.genTime.Seconds() / iters, "s"},
		"trace.ns_per_record":         {ratio(float64(a.genTime.Nanoseconds()), float64(a.genRecords)), "ns"},
		"sim.events":                  {float64(a.events) / iters, "count"},
		"sim.events_per_req":          {float64(a.events) / req, "events/req"},
		"sim.peak_pending":            {float64(a.peakPending), "count"},
		"sim.replay_self_s":           {(a.replay - a.coreSubmit.Total - a.baseSubmit.Total).Seconds() / iters, "s"},
		"array.setup_us":              {float64(a.setup.Microseconds()) / runs, "us"},
		"array.setup_allocs":          {setupAllocs, "count"},
		"core.submit_ns":              {a.coreSubmit.meanNs(), "ns"},
		"baseline.submit_ns":          {a.baseSubmit.meanNs(), "ns"},
		"runtime.mallocs_per_req":     {float64(a.mallocs) / req, "count/req"},
		"runtime.alloc_bytes_per_req": {float64(a.allocBytes) / req, "B/req"},
		"runtime.gc_cycles":           {float64(rt1.gcCycles-rt0.gcCycles) / iters, "count"},
		"runtime.gc_cpu_frac":         {ratio(rt1.gcCPU-rt0.gcCPU, (rt1.totalCPU-rt0.totalCPU)-(rt1.idle-rt0.idle)), "fraction"},
		"telemetry.events":            {float64(a.emit.N) / iters, "count"},
		"telemetry.emit_ns":           {a.emit.meanNs(), "ns"},
		"journal.bytes":               {float64(a.journalBytes) / iters, "B"},
		"journal.close_s":             {ratio(a.journalClose.Seconds(), float64(a.journalRuns)), "s"},
		"journal.peak_ring":           {float64(a.peakRing), "count"},
		"journal.dropped":             {float64(a.dropped), "count"},
		"invariant.events":            {float64(a.sanEvents) / iters, "count"},
		"invariant.sweeps":            {float64(a.sanSweeps) / iters, "count"},
		"fleet.shard_samples":         {float64(len(a.shardMs)), "count"},
		"fleet.fold_us":               {a.fold.meanNs() / 1e3, "us"},
		"cpu.samples":                 {float64(samples), "count"},
		"disk.ios_per_req":            {float64(a.ios) / req, "ios/req"},
		"disk.write_amp":              {ratio(float64(a.devWritten), float64(a.userWritten)), "ratio"},
		"disk.bg_io_frac":             {ratio(float64(a.bgIOs), float64(a.fgIOs+a.bgIOs)), "fraction"},
		"disk.spin_ups":               {float64(a.spinUps) / iters, "count"},
		"core.rotations":              {float64(a.rotations) / iters, "count"},
		"core.destages":               {float64(a.coreDestages) / iters, "count"},
		"baseline.destages":           {float64(a.graidDestages) / iters, "count"},
		"core.direct_write_frac":      {ratio(float64(a.coreDirect), float64(a.coreWrites)), "fraction"},
	}
	// A percentile is reported only with at least ten samples beyond it.
	for _, q := range []struct {
		name string
		p    float64
	}{{"fleet.shard_ms_p50", 50}, {"fleet.shard_ms_p99", 99}} {
		val, ok := percentile(a.shardMs, q.p)
		if !ok {
			val = 0
		}
		m[q.name] = metric{val, "ms"}
	}
	for _, l := range cpuLayers {
		m["cpu."+l] = metric{shares[l], "fraction"}
	}
	return m
}

// writeSpans writes the pass's spans, per-name totals and self times,
// and the aggregated per-call boundaries, and prints the span summary.
func writeSpans(dir, workload string, seed int64, a *passAcc, m map[string]metric) error {
	spans := a.spans.spans
	self := selfTimes(spans)
	type summary struct {
		Count int     `json:"count"`
		Total float64 `json:"total_s"`
		Self  float64 `json:"self_s"`
	}
	sums := map[string]*summary{}
	var names []string
	for i, s := range spans {
		x := sums[s.Name]
		if x == nil {
			x = &summary{}
			sums[s.Name] = x
			names = append(names, s.Name)
		}
		x.Count++
		x.Total += (s.End - s.Start).Seconds()
		x.Self += self[i].Seconds()
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s seed %d traced: %d iterations, %d runs, trace_overhead %.3f\n",
		workload, seed, a.iters, a.runs, m["trace_overhead"].Value)
	fmt.Fprintf(os.Stderr, "  %-16s %8s %12s %12s\n", "span", "count", "total s", "self s")
	for _, n := range names {
		x := sums[n]
		fmt.Fprintf(os.Stderr, "  %-16s %8d %12.4f %12.4f\n", n, x.Count, x.Total, x.Self)
	}
	doc := map[string]any{
		"workload": workload,
		"seed":     seed,
		"spans":    spans,
		"summary":  sums,
		"calls": map[string]callAgg{
			"core.submit":     a.coreSubmit,
			"baseline.submit": a.baseSubmit,
			"telemetry.emit":  a.emit,
			"fleet.fold":      a.fold,
		},
		"metrics": m,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	fmt.Fprintf(os.Stderr, "  spans written to %s\n", path)
	return os.WriteFile(path, b, 0o644)
}
