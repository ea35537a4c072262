// Package rolo is a trace-driven simulator of the RoLo rotated-logging
// storage architecture (Yue et al., ICDCS 2010) and its comparison schemes.
//
// It models RAID10 arrays of mechanically- and power-accurate disks and
// five controllers: standard RAID10, GRAID (centralized logging on a
// dedicated log disk), and the three RoLo flavors — RoLo-P (performance),
// RoLo-R (reliability) and RoLo-E (energy). Workloads come either from
// real MSR Cambridge traces or from the calibrated synthetic profiles in
// this module.
//
// The typical entry point is Run:
//
//	cfg := rolo.DefaultConfig(rolo.SchemeRoLoP)
//	recs, _ := rolo.GenerateProfile("src2_2", cfg, 0.1)
//	rep, err := rolo.Run(cfg, recs)
//
// See the examples directory and cmd/roloexp for complete programs.
package rolo

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/baseline"
	"github.com/rolo-storage/rolo/internal/core"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/invariant"
	"github.com/rolo-storage/rolo/internal/metrics"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/trace"
)

// Scheme identifies a storage controller scheme.
type Scheme int

// The five schemes evaluated in the paper.
const (
	SchemeRAID10 Scheme = iota + 1
	SchemeGRAID
	SchemeRoLoP
	SchemeRoLoR
	SchemeRoLoE
)

// Schemes lists all schemes in the paper's presentation order.
var Schemes = []Scheme{SchemeRAID10, SchemeGRAID, SchemeRoLoP, SchemeRoLoR, SchemeRoLoE}

// String returns the scheme name as used in the paper.
func (s Scheme) String() string {
	switch s {
	case SchemeRAID10:
		return "RAID10"
	case SchemeGRAID:
		return "GRAID"
	case SchemeRoLoP:
		return "RoLo-P"
	case SchemeRoLoR:
		return "RoLo-R"
	case SchemeRoLoE:
		return "RoLo-E"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// MarshalJSON encodes the scheme as its paper name.
func (s Scheme) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", s.String())), nil
}

// UnmarshalJSON decodes a scheme from its paper name.
func (s *Scheme) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	v, err := ParseScheme(name)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// ParseScheme resolves a scheme name (case-sensitive, as printed by
// String).
func ParseScheme(name string) (Scheme, error) {
	for _, s := range Schemes {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("rolo: unknown scheme %q", name)
}

// Config describes one simulated array and scheme.
type Config struct {
	// Scheme selects the controller.
	Scheme Scheme
	// Pairs is the number of mirrored pairs; the array has 2·Pairs disks
	// (GRAID adds one dedicated log disk).
	Pairs int
	// StripeUnitBytes is the RAID10 striping granularity.
	StripeUnitBytes int64
	// Disk is the drive model; defaults to the IBM Ultrastar 36Z15.
	Disk disk.Config
	// FreeBytesPerDisk is the per-disk logging region (the paper's
	// default is 8 GB, half the drive).
	FreeBytesPerDisk int64
	// RAMCacheBlocks enables a controller-level RAM read cache of that
	// many blocks in front of the scheme (0 disables it, the default).
	// The paper assumes multi-level caches absorb most reads before they
	// reach the disks; this knob models that level explicitly.
	RAMCacheBlocks int
	// RAMCacheBlockBytes is the RAM cache granularity (default 4 KiB).
	RAMCacheBlockBytes int64
	// GRAID, RoLo and RoLoE hold per-scheme tuning knobs.
	GRAID baseline.GRAIDConfig
	RoLo  core.Config
	RoLoE core.EConfig
	// Telemetry optionally attaches an event journal sink and periodic
	// probes to the run. The zero value disables both, at zero cost.
	Telemetry telemetry.Config
	// Check enables RoloSan, the runtime invariant sanitizer: recover-
	// ability, log-space conservation, disk state-machine legality and
	// accounting monotonicity are validated during the run, and the first
	// violation stops the simulation and fails Run with a structured
	// diagnostic. Expect a modest constant-factor slowdown.
	Check bool
	// CheckSweepEvery overrides the sanitizer's full-sweep period in
	// events (0 keeps the default; only meaningful with Check set).
	CheckSweepEvery uint64
}

// DefaultConfig returns the paper's default configuration for the scheme:
// 20 mirrored pairs (40 disks), 64 KB stripe unit, Ultrastar 36Z15 drives,
// 8 GB free space per disk, 16 GB GRAID log disk.
func DefaultConfig(scheme Scheme) Config {
	return Config{
		Scheme:           scheme,
		Pairs:            20,
		StripeUnitBytes:  64 << 10,
		Disk:             disk.Ultrastar36Z15(),
		FreeBytesPerDisk: 8 << 30,
		GRAID:            baseline.DefaultGRAIDConfig(),
		RoLo:             core.DefaultConfig(),
		RoLoE:            core.DefaultEConfig(),
	}
}

// ScaleBytes shrinks a byte quantity of the paper's geometry by scale,
// aligned down to 1 MiB and never below 1 MiB.
func ScaleBytes(b, scale float64) int64 {
	v := int64(b * scale)
	const align = 1 << 20
	v -= v % align
	if v < align {
		v = align
	}
	return v
}

// ScaledConfig returns DefaultConfig(scheme) on the paper's geometry
// shrunk by scale: 18.4 GiB drives with freeGiB GiB of logging space
// each and a 16 GiB GRAID log disk, every size scaled by ScaleBytes.
// Shrinking geometry and trace together preserves the comparisons that
// scale with the log, not those that follow the replayed window (see
// internal/experiments).
func ScaledConfig(scheme Scheme, scale, freeGiB float64) Config {
	cfg := DefaultConfig(scheme)
	cfg.Disk.CapacityBytes = ScaleBytes(18.4*(1<<30), scale)
	cfg.FreeBytesPerDisk = ScaleBytes(freeGiB*(1<<30), scale)
	cfg.GRAID.LogCapacityBytes = ScaleBytes(16*(1<<30), scale)
	return cfg
}

// Geometry derives the RAID10 geometry: the data region is the disk
// capacity minus the logging region, rounded down to a stripe multiple.
func (c Config) Geometry() raid.Geometry {
	dataBytes := c.Disk.CapacityBytes - c.FreeBytesPerDisk
	if c.StripeUnitBytes > 0 {
		dataBytes -= dataBytes % c.StripeUnitBytes
	}
	return raid.Geometry{
		Pairs:            c.Pairs,
		StripeUnitBytes:  c.StripeUnitBytes,
		DataBytesPerDisk: dataBytes,
	}
}

// VolumeBytes returns the logical volume size exposed by this
// configuration; workloads must address within it.
func (c Config) VolumeBytes() int64 { return c.Geometry().VolumeBytes() }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.Scheme {
	case SchemeRAID10, SchemeGRAID, SchemeRoLoP, SchemeRoLoR, SchemeRoLoE:
	default:
		return fmt.Errorf("rolo: invalid scheme %d", int(c.Scheme))
	}
	if c.Pairs <= 0 {
		return fmt.Errorf("rolo: non-positive pair count %d", c.Pairs)
	}
	if c.RAMCacheBlocks < 0 {
		return fmt.Errorf("rolo: negative RAM cache size %d", c.RAMCacheBlocks)
	}
	if c.FreeBytesPerDisk < 0 || c.FreeBytesPerDisk >= c.Disk.CapacityBytes {
		return fmt.Errorf("rolo: free space %d outside [0, disk capacity %d)",
			c.FreeBytesPerDisk, c.Disk.CapacityBytes)
	}
	if err := c.Disk.Validate(); err != nil {
		return err
	}
	if err := c.Telemetry.Validate(); err != nil {
		return err
	}
	return c.Geometry().Validate()
}

// LatencyBreakdown summarizes one request class (reads or writes).
type LatencyBreakdown struct {
	Count  int64
	MeanMs float64
	P95Ms  float64
	P99Ms  float64
	MaxMs  float64
}

// Report summarizes one simulation run.
type Report struct {
	Scheme   Scheme
	Requests int64

	// EnergyJ is cumulative array energy at the trace horizon — the
	// number used for all cross-scheme energy comparisons.
	EnergyJ float64
	// EnergyAtDrainJ is energy once all background work finished.
	EnergyAtDrainJ float64

	MeanResponseMs float64
	P95ResponseMs  float64
	P99ResponseMs  float64
	MaxResponseMs  float64

	// ReadLatency and WriteLatency break the response times down by
	// request class. Cache-absorbed reads count as reads.
	ReadLatency  LatencyBreakdown
	WriteLatency LatencyBreakdown

	// AllHist, ReadHist and WriteHist are the exact log-bucketed
	// response-time histograms behind the summary statistics above
	// (microsecond values, every response counted). They exist so a
	// fleet layer can merge per-shard latency distributions without
	// loss (internal/fleet); they are omitted from JSON reports. The
	// histograms are snapshots: safe to read and merge from, but not
	// observation targets.
	AllHist   telemetry.Histogram `json:"-"`
	ReadHist  telemetry.Histogram `json:"-"`
	WriteHist telemetry.Histogram `json:"-"`

	// SpinCycles is the array-wide count of disk spin-up events
	// (Table I's "number of disks spin up/down").
	SpinCycles int

	// Rotations counts logger rotations (RoLo-P/R/E).
	Rotations int
	// Destages counts centralized destages (GRAID, RoLo-E).
	Destages int
	// DirectWrites counts writes that bypassed logging.
	DirectWrites int64
	// ReadHitRate is the fraction of reads served without a spin-up
	// (RoLo-E only).
	ReadHitRate float64
	// RAMHitRate is the controller RAM cache hit rate (when enabled).
	RAMHitRate float64

	// DestagingIntervalRatio and DestagingEnergyRatio are the Figure 2
	// metrics (schemes with centralized destaging phases).
	DestagingIntervalRatio float64
	DestagingEnergyRatio   float64
	// Phases is the log of completed logging and destaging periods
	// behind the two ratios (empty unless the scheme destages
	// centrally; Figure 2 reads its per-phase means). Like the
	// histograms it shares the controller's storage and is omitted from
	// JSON reports.
	Phases metrics.PhaseLog `json:"-"`

	// StateSeconds aggregates time per power state over all disks.
	StateSeconds map[string]float64
	// DiskStateSeconds holds the same per-state accounting for each disk
	// individually, indexed by disk ID (data pairs first, then any
	// dedicated log disk).
	DiskStateSeconds []map[string]float64

	// ProbeSamples is the number of periodic probe samples taken (0 when
	// probes are disabled). The peaks below are sampled at probe times.
	ProbeSamples int
	// PeakLogOccupancy is the highest sampled log-space occupancy
	// fraction across the run (schemes with a logging region).
	PeakLogOccupancy float64
	// PeakDestageBacklogBytes is the highest sampled destage backlog.
	PeakDestageBacklogBytes int64
	// PeakSpinningDisks is the highest sampled count of spinning disks.
	PeakSpinningDisks int

	// Horizon is the trace duration; DrainedAt is when the last
	// background work completed.
	Horizon   sim.Time
	DrainedAt sim.Time

	// SanitizerEvents and SanitizerSweeps report RoloSan coverage when
	// Config.Check is set: events observed and full invariant sweeps run.
	SanitizerEvents uint64
	SanitizerSweeps uint64
}

// Run simulates the configuration against the trace records (which must be
// time-ordered and addressed within VolumeBytes).
//
// The telemetry sink is flushed on every exit path, including failed
// runs, so a journal always reflects the events emitted up to the
// failure; a flush error joins (never masks) the run's own error. Run
// does not close the sink — closing, like opening, belongs to whoever
// constructed it (a journal's RotatingWriter must be Closed to seal its
// last segment and write the manifest; see internal/telemetry/journal).
func Run(cfg Config, recs []trace.Record) (rep Report, err error) {
	if err := cfg.Validate(); err != nil {
		return rep, err
	}
	if err := trace.Validate(recs, cfg.VolumeBytes()); err != nil {
		return rep, err
	}
	defer func() {
		if f, ok := cfg.Telemetry.Sink.(telemetry.Flusher); ok {
			if ferr := f.Flush(); ferr != nil {
				err = errors.Join(err, fmt.Errorf("rolo: flushing telemetry sink: %w", ferr))
			}
		}
	}()
	eng := sim.New()
	extras := 0
	if cfg.Scheme == SchemeGRAID {
		extras = 1
	}
	arr, err := array.New(eng, cfg.Geometry(), cfg.Disk, extras)
	if err != nil {
		return rep, err
	}

	scheme, err := newController(cfg, arr)
	if err != nil {
		return rep, err
	}
	var ctrl array.Controller = scheme
	resp := scheme.Responses()

	// RoloSan attaches to the raw scheme controller, before any cache
	// wrapper, so its snapshots see the real bookkeeping.
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
		san.WatchDisks(arr.AllDisks(), cfg.Scheme == SchemeRAID10)
		san.Install()
	}

	// The RAM cache wrapper has no logging space of its own, so gauges
	// come from the inner scheme controller.
	gauges, _ := ctrl.(telemetry.GaugeSource)

	var ram *array.CachedController
	if cfg.RAMCacheBlocks > 0 {
		blockBytes := cfg.RAMCacheBlockBytes
		if blockBytes == 0 {
			blockBytes = 4096
		}
		ram, err = array.WithRAMCache(ctrl, resp, eng, cfg.RAMCacheBlocks, blockBytes)
		if err != nil {
			return rep, err
		}
		ctrl = ram
	}

	tel := telemetry.NewRecorder(cfg.Telemetry.Sink)
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
		prober = telemetry.StartProber(eng, tel, arr.AllDisks(), gauges,
			iv, recs[len(recs)-1].At)
	}

	res, err := array.Replay(eng, arr, ctrl, recs)
	if err != nil {
		return rep, err
	}
	if san != nil {
		san.Final(eng.Now())
		rep.SanitizerEvents = san.Events()
		rep.SanitizerSweeps = san.Sweeps()
		if err := san.Err(); err != nil {
			return rep, fmt.Errorf("rolo: sanitizer: %w", err)
		}
	}
	if ram != nil {
		rep.RAMHitRate = ram.HitRate()
	}

	all := resp.All()
	rep.Scheme = cfg.Scheme
	rep.Requests = all.Count()
	rep.EnergyJ = res.EnergyAtHorizonJ
	rep.EnergyAtDrainJ = arr.TotalEnergyJ()
	rep.MeanResponseMs = all.Mean()
	rep.P95ResponseMs = all.Percentile(95)
	rep.P99ResponseMs = all.Percentile(99)
	rep.MaxResponseMs = all.Max().Milliseconds()
	rep.SpinCycles = arr.TotalSpinCycles()
	rep.Horizon = res.Horizon
	rep.DrainedAt = res.DrainedAt
	rep.ReadLatency = breakdown(resp.Reads())
	rep.WriteLatency = breakdown(resp.Writes())
	// Snapshot the latency histograms for cluster-level merging. The
	// class copies share bucket arrays with the controller's
	// accumulators, which see no further observations once the run has
	// drained; the combined one is the merge taken above.
	rep.AllHist = *all.Histogram()
	rep.ReadHist = *resp.Reads().Histogram()
	rep.WriteHist = *resp.Writes().Histogram()
	rep.StateSeconds = make(map[string]float64)
	for st, dur := range array.StateDurations(arr.AllDisks()) {
		rep.StateSeconds[st.String()] = dur.Seconds()
	}
	for _, d := range arr.AllDisks() {
		per := make(map[string]float64)
		for st, dur := range d.Stats().StateDur {
			per[st.String()] = dur.Seconds()
		}
		rep.DiskStateSeconds = append(rep.DiskStateSeconds, per)
	}
	if prober != nil {
		rep.ProbeSamples = prober.Samples()
		rep.PeakLogOccupancy = prober.PeakOccupancy()
		rep.PeakDestageBacklogBytes = prober.PeakBacklog()
		rep.PeakSpinningDisks = prober.PeakSpinning()
	}
	if lg, ok := scheme.(logger); ok {
		rep.Rotations = lg.Rotations()
		rep.Destages = lg.Destages()
		rep.DirectWrites = lg.DirectWrites()
		rep.Phases = *lg.Phases()
		rep.DestagingIntervalRatio = rep.Phases.DestagingIntervalRatio()
		rep.DestagingEnergyRatio = rep.Phases.DestagingEnergyRatio()
	}
	if e, ok := scheme.(interface{ ReadHitRate() float64 }); ok {
		rep.ReadHitRate = e.ReadHitRate()
	}
	if c, ok := scheme.(interface{ CheckErr() error }); ok {
		return rep, c.CheckErr()
	}
	return rep, nil
}

// controller is a scheme controller as Run drives it.
type controller interface {
	array.Controller
	Responses() *metrics.ResponseStats
}

// logger is a logging scheme's controller (every scheme but RAID10); its
// accessors are promoted from the array.Logged bookkeeping it embeds.
type logger interface {
	Rotations() int
	Destages() int
	DirectWrites() int64
	Phases() *metrics.PhaseLog
}

// newController builds cfg's scheme controller over arr.
func newController(cfg Config, arr *array.Array) (controller, error) {
	switch cfg.Scheme {
	case SchemeRAID10:
		return baseline.NewRAID10(arr), nil
	case SchemeGRAID:
		return baseline.NewGRAID(arr, cfg.GRAID)
	case SchemeRoLoP:
		return core.New(arr, core.FlavorP, cfg.RoLo)
	case SchemeRoLoR:
		return core.New(arr, core.FlavorR, cfg.RoLo)
	case SchemeRoLoE:
		return core.NewE(arr, cfg.RoLoE)
	default:
		// Validate has vetted the scheme already; keep the switch total.
		return nil, fmt.Errorf("rolo: unknown scheme %q", cfg.Scheme)
	}
}

func breakdown(c *metrics.ClassStats) LatencyBreakdown {
	return LatencyBreakdown{
		Count:  c.Count(),
		MeanMs: c.Mean(),
		P95Ms:  c.Percentile(95),
		P99Ms:  c.Percentile(99),
		MaxMs:  c.Max().Milliseconds(),
	}
}

// GenerateProfile materializes a calibrated MSR profile against the
// configuration's volume, replaying the given fraction (0,1] of the full
// trace.
func GenerateProfile(name string, cfg Config, scale float64) ([]trace.Record, error) {
	p, err := trace.Lookup(name)
	if err != nil {
		return nil, err
	}
	return p.Generate(cfg.VolumeBytes(), scale)
}
