package baseline

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/intervals"
	"github.com/rolo-storage/rolo/internal/invariant"
	"github.com/rolo-storage/rolo/internal/logspace"
	"github.com/rolo-storage/rolo/internal/metrics"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/trace"
)

// GRAIDConfig parameterizes the GRAID controller.
type GRAIDConfig struct {
	// LogCapacityBytes is the usable capacity of the dedicated log disk
	// (the paper's default is 16 GB).
	LogCapacityBytes int64
	// DestageThreshold is the log occupancy fraction that triggers a
	// centralized destage (the paper uses 0.8).
	DestageThreshold float64
	// DestageChunkBytes caps the size of each destage copy I/O.
	DestageChunkBytes int64
	// SpinDownRetry is the retry interval for post-destage spin-downs.
	SpinDownRetry sim.Time
}

// DefaultGRAIDConfig returns the paper's configuration.
func DefaultGRAIDConfig() GRAIDConfig {
	return GRAIDConfig{
		LogCapacityBytes:  16 << 30,
		DestageThreshold:  0.8,
		DestageChunkBytes: 256 << 10,
		SpinDownRetry:     sim.Second,
	}
}

// GRAID is the centralized-logging RAID10: mirrors stay in Standby while
// the second copy of every write lands sequentially on one dedicated log
// disk; when the log reaches the occupancy threshold, every mirror spins up
// and all inconsistent blocks are copied in parallel from the primaries
// (Figure 1 of the paper).
type GRAID struct {
	arr *array.Array
	cfg GRAIDConfig

	logDisk  *disk.Disk
	logSpace *logspace.Space
	gen      int // allocation generation tag; bumped at each destage

	dirty     []intervals.Set // per pair, mirror-stale spans (data-region offsets)
	destaging bool

	reqs  array.Requests
	phase metrics.PhaseLog
	tel   *telemetry.Recorder
	exts  []raid.Extent // Submit's extent scratch, reused per request

	destages     int
	logOverflows int
	logFailed    bool
	closed       bool

	san *invariant.Audit // nil unless a sanitizer is attached (audit.go)
}

var (
	_ array.Controller       = (*GRAID)(nil)
	_ telemetry.Instrumented = (*GRAID)(nil)
	_ telemetry.GaugeSource  = (*GRAID)(nil)
)

// NewGRAID builds a GRAID controller. The array must have exactly one
// extra disk (the dedicated logger); mirrors are placed in Standby.
func NewGRAID(arr *array.Array, cfg GRAIDConfig) (*GRAID, error) {
	if len(arr.Extras) != 1 {
		return nil, fmt.Errorf("graid: need exactly 1 extra log disk, have %d", len(arr.Extras))
	}
	if cfg.LogCapacityBytes <= 0 || cfg.LogCapacityBytes > arr.Extras[0].Config().CapacityBytes {
		return nil, fmt.Errorf("graid: log capacity %d outside (0,%d]",
			cfg.LogCapacityBytes, arr.Extras[0].Config().CapacityBytes)
	}
	if cfg.DestageThreshold <= 0 || cfg.DestageThreshold > 1 {
		return nil, fmt.Errorf("graid: destage threshold %g outside (0,1]", cfg.DestageThreshold)
	}
	if cfg.DestageChunkBytes <= 0 {
		return nil, fmt.Errorf("graid: non-positive destage chunk %d", cfg.DestageChunkBytes)
	}
	space, err := logspace.New(cfg.LogCapacityBytes)
	if err != nil {
		return nil, err
	}
	g := &GRAID{
		arr:      arr,
		cfg:      cfg,
		logDisk:  arr.Extras[0],
		logSpace: space,
		dirty:    make([]intervals.Set, arr.Geom.Pairs),
	}
	for _, m := range arr.Mirrors {
		if err := m.ForceState(disk.Standby); err != nil {
			return nil, fmt.Errorf("graid: init mirror: %w", err)
		}
	}
	g.phase.Begin(metrics.Logging, arr.Eng.Now(), arr.TotalEnergyJ())
	return g, nil
}

// Responses returns the response-time statistics.
func (g *GRAID) Responses() *metrics.ResponseStats { return &g.reqs.Resp }

// SetTelemetry implements telemetry.Instrumented.
func (g *GRAID) SetTelemetry(rec *telemetry.Recorder) {
	g.tel = rec
	g.reqs.SetTelemetry(rec)
}

// TelemetryGauges implements telemetry.GaugeSource: occupancy of the
// dedicated log disk and the mirror-stale bytes awaiting destage.
func (g *GRAID) TelemetryGauges() (logUsed, logCap, backlog int64) {
	for p := range g.dirty {
		backlog += g.dirty[p].Total()
	}
	return g.logSpace.UsedBytes(), g.logSpace.Capacity(), backlog
}

// Phases returns the logging/destaging phase log.
func (g *GRAID) Phases() *metrics.PhaseLog { return &g.phase }

// Destages returns the number of centralized destages triggered.
func (g *GRAID) Destages() int { return g.destages }

// LogOverflows returns how many writes had to bypass the logger because it
// was completely full.
func (g *GRAID) LogOverflows() int { return g.logOverflows }

// Submit implements array.Controller.
func (g *GRAID) Submit(rec trace.Record) error {
	exts, err := g.arr.Geom.AppendExtents(g.exts[:0], rec.Offset, rec.Size)
	if err != nil {
		return fmt.Errorf("graid: %w", err)
	}
	g.exts = exts
	if g.tel != nil {
		g.tel.RequestStart(rec.At, rec.Op == trace.Write, rec.Size)
	}
	switch rec.Op {
	case trace.Read:
		// Mirrors are asleep; reads are always served by the primaries.
		req := g.reqs.Start(rec, len(exts))
		for _, e := range exts {
			io := g.arr.DataIO(e.Offset, e.Length, false, false)
			io.OnDone = req.Done
			if err := g.arr.Primaries[e.Pair].Submit(io); err != nil {
				return fmt.Errorf("graid: read: %w", err)
			}
		}
		return nil
	case trace.Write:
		return g.submitWrite(rec, exts)
	default:
		return fmt.Errorf("graid: unknown op %v", rec.Op)
	}
}

// FailLogDisk fails the dedicated log disk — GRAID's single point of
// failure (Section III-D of the RoLo paper contrasts this with RoLo's
// immediate logger replacement). The second copies of all logged-but-not-
// destaged writes are lost, so an emergency destage from the primaries
// re-protects them: every mirror spins up at once. Until ReplaceLogDisk
// is called, writes go directly to both copies and the energy advantage
// evaporates. It returns the number of bytes that were exposed to a
// second failure.
func (g *GRAID) FailLogDisk() int64 {
	if g.logFailed {
		return 0
	}
	g.logDisk.Fail()
	g.logFailed = true
	var exposed int64
	for p := range g.dirty {
		exposed += g.dirty[p].Total()
	}
	if !g.destaging {
		g.startDestage(g.arr.Eng.Now())
	}
	return exposed
}

// ReplaceLogDisk swaps in a fresh dedicated logger and resumes logging.
func (g *GRAID) ReplaceLogDisk() error {
	if !g.logFailed {
		return fmt.Errorf("graid: log disk is healthy")
	}
	if err := g.logDisk.Replace(); err != nil {
		return err
	}
	g.logFailed = false
	g.resetLog()
	g.gen++
	return nil
}

// LogFailed reports whether the dedicated logger is down.
func (g *GRAID) LogFailed() bool { return g.logFailed }

func (g *GRAID) submitWrite(rec trace.Record, exts []raid.Extent) error {
	if g.logFailed {
		// No logger: write both copies in place (the mirrors wake — the
		// cost of a centralized architecture's single point of failure).
		g.logOverflows++
		req := g.reqs.Start(rec, 2*len(exts))
		for _, e := range exts {
			if err := g.writePair(e, req); err != nil {
				return err
			}
			g.cleanDirty(e.Pair, e.Offset, e.Offset+e.Length)
		}
		return nil
	}
	alloc, ok := g.logAlloc(rec.Size)
	if !ok {
		// Log completely full (can only happen if writes outrun the
		// in-progress destage): fall back to direct mirrored writes.
		// The mirrors are already up in that situation.
		g.logOverflows++
		req := g.reqs.Start(rec, 2*len(exts))
		for _, e := range exts {
			if err := g.writePair(e, req); err != nil {
				return err
			}
		}
		g.maybeDestage()
		return nil
	}
	req := g.reqs.Start(rec, len(exts)+1)
	for _, e := range exts {
		io := g.arr.DataIO(e.Offset, e.Length, true, false)
		io.OnDone = req.Done
		if err := g.arr.Primaries[e.Pair].Submit(io); err != nil {
			return fmt.Errorf("graid: primary write: %w", err)
		}
		g.markDirty(e.Pair, e.Offset, e.Offset+e.Length)
	}
	// The dedicated log disk is log-only: its whole LBA space is the log,
	// addressed sequentially from LBA 0.
	lba, sectors := array.SectorRange(alloc.Offset, alloc.Length)
	logIO := g.arr.PooledIO(lba, sectors, true, false)
	logIO.OnDone = req.Done
	if err := g.logDisk.Submit(logIO); err != nil {
		return fmt.Errorf("graid: log write: %w", err)
	}
	g.maybeDestage()
	return nil
}

func (g *GRAID) writePair(e raid.Extent, req *array.Request) error {
	for _, mirror := range [...]bool{false, true} {
		io := g.arr.DataIO(e.Offset, e.Length, true, false)
		io.OnDone = req.Done
		target := g.arr.Primaries[e.Pair]
		if mirror {
			target = g.arr.Mirrors[e.Pair]
		}
		if err := target.Submit(io); err != nil {
			return fmt.Errorf("graid: direct write pair %d: %w", e.Pair, err)
		}
	}
	return nil
}

func (g *GRAID) maybeDestage() {
	if g.destaging {
		return
	}
	occupancy := 1 - g.logSpace.FreeFraction()
	if occupancy < g.cfg.DestageThreshold {
		return
	}
	g.startDestage(g.arr.Eng.Now())
}

func (g *GRAID) startDestage(now sim.Time) {
	g.destaging = true
	g.destages++
	destagedGen := g.gen
	g.gen++
	if g.tel != nil {
		g.tel.DestageStart(now, -1)
	}
	g.phase.Begin(metrics.Destaging, now, g.arr.TotalEnergyJ())

	join := array.NewJoin(g.arr.Geom.Pairs, func(at sim.Time) {
		g.endDestage(at, destagedGen)
	})
	for p := 0; p < g.arr.Geom.Pairs; p++ {
		p := p
		if err := g.arr.Mirrors[p].SpinUp(); err != nil {
			// Mirrors can only be Standby or (exceptionally) already
			// spinning here; a spin-up failure means SpinningDown, which
			// resolves itself — the queued destage IOs will wake it.
			_ = err
		}
		work := &intervals.Set{}
		for _, sp := range g.dirty[p].Spans() {
			work.Add(sp.Start, sp.End)
		}
		g.clearDirty(p)
		cp := array.NewCopier(g.arr.Eng, g.arr.Primaries[p], []*disk.Disk{g.arr.Mirrors[p]},
			work, g.cfg.DestageChunkBytes,
			func(sp intervals.Span) *disk.IO { return g.arr.DataIO(sp.Start, sp.Len(), false, true) },
			func(sp intervals.Span) *disk.IO { return g.arr.DataIO(sp.Start, sp.Len(), true, true) },
		)
		fired := false
		cp.OnDrained = func(at sim.Time) {
			if fired {
				return
			}
			fired = true
			join.Done(at)
		}
		cp.Kick()
	}
}

func (g *GRAID) endDestage(now sim.Time, destagedGen int) {
	if g.tel != nil {
		g.tel.DestageDone(now, -1)
	}
	freed := g.releaseGen(destagedGen)
	if g.tel != nil && freed > 0 {
		g.tel.LogInvalidate(now, -1, freed)
	}
	g.destaging = false
	g.phase.Begin(metrics.Logging, now, g.arr.TotalEnergyJ())
	for _, m := range g.arr.Mirrors {
		m := m
		array.SpinDownWhenIdle(g.arr.Eng, m, g.cfg.SpinDownRetry, func() bool {
			return !g.destaging && !g.closed
		})
	}
	// Writes that arrived during the destage may already have refilled
	// the log past the threshold.
	g.maybeDestage()
}

// Close implements array.Controller.
func (g *GRAID) Close(now sim.Time) {
	g.closed = true
	g.phase.End(now, g.arr.TotalEnergyJ())
}
