package baseline

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/intervals"
	"github.com/rolo-storage/rolo/internal/invariant"
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
}

// DefaultGRAIDConfig returns the paper's configuration.
func DefaultGRAIDConfig() GRAIDConfig {
	return GRAIDConfig{
		LogCapacityBytes: 16 << 30,
		DestageThreshold: 0.8,
	}
}

// GRAID is the centralized-logging RAID10: mirrors stay in Standby while
// the second copy of every write lands sequentially on one dedicated log
// disk; when the log reaches the occupancy threshold, every mirror spins up
// and all inconsistent blocks are copied in parallel from the primaries
// (Figure 1 of the paper). Its log is one generation-tagged space, so the
// sanitizer checks that the log covers the mirror-stale volume in
// aggregate while the log disk lives.
type GRAID struct {
	*array.Logged

	arr     *array.Array
	cfg     GRAIDConfig
	logDisk *disk.Disk
	gen     int // allocation generation tag; bumped at each destage
}

var (
	_ array.Controller       = (*GRAID)(nil)
	_ telemetry.Instrumented = (*GRAID)(nil)
	_ telemetry.GaugeSource  = (*GRAID)(nil)
	_ invariant.Attachable   = (*GRAID)(nil)
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
	lg, err := array.NewLogged(arr, array.LogLayout{
		Scheme: "GRAID", Spaces: 1, SpaceBytes: cfg.LogCapacityBytes,
		PrimaryBacked: true, ByGeneration: true,
	})
	if err != nil {
		return nil, err
	}
	g := &GRAID{Logged: lg, arr: arr, cfg: cfg, logDisk: arr.Extras[0]}
	for _, m := range arr.Mirrors {
		if err := m.ForceState(disk.Standby); err != nil {
			return nil, fmt.Errorf("graid: init mirror: %w", err)
		}
	}
	g.BeginLogging(arr.Eng.Now())
	return g, nil
}

// LogOverflows returns how many writes bypassed the logger because it was
// full or down.
func (g *GRAID) LogOverflows() int64 { return g.DirectWrites() }

// Submit implements array.Controller.
func (g *GRAID) Submit(rec trace.Record) error {
	exts, err := g.Reqs.Arrive(g.arr.Geom, rec)
	if err != nil {
		return fmt.Errorf("graid: %w", err)
	}
	switch rec.Op {
	case trace.Read:
		// Mirrors are asleep; reads are always served by the primaries.
		req := g.Reqs.Start(rec, len(exts))
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
	if g.LogDown() {
		return 0
	}
	g.logDisk.Fail()
	g.SetLogDown(true)
	_, _, exposed := g.TelemetryGauges()
	if !g.Destaging() {
		g.startDestage(g.arr.Eng.Now())
	}
	return exposed
}

// ReplaceLogDisk swaps in a fresh dedicated logger and resumes logging.
func (g *GRAID) ReplaceLogDisk() error {
	if !g.LogDown() {
		return fmt.Errorf("graid: log disk is healthy")
	}
	if err := g.logDisk.Replace(); err != nil {
		return err
	}
	g.SetLogDown(false)
	// The lost log's data is current on the (always-spinning) primaries.
	g.ResetSpace(0)
	g.gen++
	return nil
}

func (g *GRAID) submitWrite(rec trace.Record, exts []raid.Extent) error {
	if g.LogDown() {
		// No logger: write both copies in place (the mirrors wake — the
		// cost of a centralized architecture's single point of failure).
		g.Bypassed()
		req := g.Reqs.Start(rec, 2*len(exts))
		for _, e := range exts {
			if err := g.arr.MirroredWrite(e, req.Done); err != nil {
				return fmt.Errorf("graid: direct write: %w", err)
			}
			g.CleanDirty(e.Pair, e.Offset, e.Offset+e.Length)
		}
		return nil
	}
	alloc, ok := g.Alloc(0, rec.Size, g.gen)
	if !ok {
		// Log completely full (can only happen if writes outrun the
		// in-progress destage): fall back to direct mirrored writes.
		// The mirrors are already up in that situation.
		g.Bypassed()
		req := g.Reqs.Start(rec, 2*len(exts))
		for _, e := range exts {
			if err := g.arr.MirroredWrite(e, req.Done); err != nil {
				return fmt.Errorf("graid: direct write: %w", err)
			}
		}
		g.maybeDestage()
		return nil
	}
	req := g.Reqs.Start(rec, len(exts)+1)
	for _, e := range exts {
		io := g.arr.DataIO(e.Offset, e.Length, true, false)
		io.OnDone = req.Done
		if err := g.arr.Primaries[e.Pair].Submit(io); err != nil {
			return fmt.Errorf("graid: primary write: %w", err)
		}
		g.MarkDirty(e.Pair, e.Offset, e.Offset+e.Length)
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

func (g *GRAID) maybeDestage() {
	if g.Destaging() || 1-g.FreeFraction(0) < g.cfg.DestageThreshold {
		return
	}
	g.startDestage(g.arr.Eng.Now())
}

// startDestage opens a new log generation and destages the previous one:
// each mirror wakes just before its pair's copy from the primary starts.
func (g *GRAID) startDestage(now sim.Time) {
	gen := g.gen
	g.gen++
	g.BeginDestage(now)
	g.DestageEach(func(p int, work *intervals.Set) *array.Copier {
		// A mirror still spinning down refuses the wake-up; the queued
		// destage IOs wake it once it lands.
		_ = g.arr.Mirrors[p].SpinUp()
		return g.arr.DataCopier(g.arr.Primaries[p], g.arr.Mirrors[p], work)
	}, func(at sim.Time) { g.endDestage(at, gen) })
}

func (g *GRAID) endDestage(now sim.Time, gen int) {
	g.EndDestage(now, g.ReleaseTag(gen))
	for _, m := range g.arr.Mirrors {
		array.SpinDownWhenIdle(g.arr.Eng, m, func() bool {
			return !g.Destaging() && !g.Closed()
		})
	}
	// Writes that arrived during the destage may already have refilled
	// the log past the threshold.
	g.maybeDestage()
}
