// Package fleet multiplexes many independent RoLo arrays — one per
// tenant shard — and folds their reports into a single deterministic
// cluster report. It is the enterprise-data-center layer over the
// single-array simulator: a one-line base workload spec expands into
// thousands of distinct per-tenant workloads (trace.ShardRule), every
// shard runs a private engine + array + controller (rolo.Run) as a leaf
// job on a shared worker pool, and a streaming merge layer folds the
// per-shard reports in shard-index order so the cluster report is
// byte-identical at any job count (DESIGN §16).
package fleet

import (
	"fmt"
	"path/filepath"
	"strings"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry/journal"
	"github.com/rolo-storage/rolo/internal/trace"
)

// Spec describes a fleet: how many shards, which schemes they cycle
// through, the per-shard array geometry, and the base tenant workload
// with its per-shard derivation rule.
type Spec struct {
	// Shards is the number of independent arrays.
	Shards int
	// Schemes are cycled across shards: shard i runs Schemes[i%len].
	Schemes []rolo.Scheme
	// Pairs, Scale, FreeGiB and StripeKB fix each shard's array geometry
	// (the same scaling discipline as internal/experiments: capacity,
	// free space and trace length shrink together).
	Pairs    int
	Scale    float64
	FreeGiB  float64
	StripeKB int64
	// Base is the tenant workload template; Rule derives shard i's
	// variant (distinct seed, IOPS spread).
	Base trace.Synthetic
	Rule trace.ShardRule
	// Check enables the RoloSan sanitizer in every shard.
	Check bool
	// ProbeInterval enables periodic telemetry probes in every shard
	// (0 disables them).
	ProbeInterval sim.Time
	// WorstK is how many worst shards (by p99 latency) the cluster
	// report digests.
	WorstK int

	// Journal, when Journal.Dir is non-empty, writes one rotated
	// telemetry journal directory per shard, shard-NNNNN/ under
	// Journal.Dir. Each shard's worker goroutine writes its own journal,
	// so every event is kept and the directory is the same at any pool
	// size.
	Journal journal.RotateConfig
}

// DefaultWorkload is DefaultSpec's base tenant workload, in the
// trace.ParseSyntheticSpec format.
const DefaultWorkload = "iops=60 write=0.9 duration=20s size=16K random=0.7 burst=0.3 seed=1"

// DefaultSpec returns a small but representative fleet: 64 shards
// cycling all five schemes at toy scale under a bursty mixed workload.
func DefaultSpec() Spec {
	base, err := trace.ParseSyntheticSpec(DefaultWorkload)
	if err != nil {
		panic("fleet: default workload spec invalid: " + err.Error()) // programmer error at init
	}
	return Spec{
		Shards:   64,
		Schemes:  append([]rolo.Scheme(nil), rolo.Schemes...),
		Pairs:    4,
		Scale:    0.02,
		FreeGiB:  8,
		StripeKB: 64,
		Base:     base,
		Rule:     trace.ShardRule{SeedStride: 1, IOPSSpread: 0.5},
		WorstK:   8,
	}
}

// Validate reports spec errors.
func (s *Spec) Validate() error {
	switch {
	case s.Shards <= 0:
		return fmt.Errorf("fleet: non-positive shard count %d", s.Shards)
	case len(s.Schemes) == 0:
		return fmt.Errorf("fleet: no schemes")
	case s.Pairs < 2:
		return fmt.Errorf("fleet: pairs %d < 2", s.Pairs)
	case s.Scale <= 0 || s.Scale > 1:
		return fmt.Errorf("fleet: scale %g outside (0,1]", s.Scale)
	case s.FreeGiB <= 0:
		return fmt.Errorf("fleet: non-positive free space %g GiB", s.FreeGiB)
	case s.StripeKB <= 0:
		return fmt.Errorf("fleet: non-positive stripe unit %d KB", s.StripeKB)
	case s.Rule.IOPSSpread < 0 || s.Rule.IOPSSpread >= 1:
		return fmt.Errorf("fleet: IOPS spread %g outside [0,1)", s.Rule.IOPSSpread)
	case s.WorstK < 1:
		return fmt.Errorf("fleet: worst-K %d < 1", s.WorstK)
	}
	if err := s.Journal.Validate(); err != nil {
		return err
	}
	for _, sch := range s.Schemes {
		if _, err := rolo.ParseScheme(sch.String()); err != nil {
			return err
		}
	}
	return s.Base.Validate()
}

// SchemeFor returns the scheme shard i runs.
func (s *Spec) SchemeFor(shard int) rolo.Scheme {
	return s.Schemes[shard%len(s.Schemes)]
}

// ShardConfig builds shard i's array configuration and derived workload.
func (s *Spec) ShardConfig(shard int) (rolo.Config, trace.Synthetic) {
	cfg := rolo.ScaledConfig(s.SchemeFor(shard), s.Scale, s.FreeGiB)
	cfg.Pairs = s.Pairs
	cfg.StripeUnitBytes = s.StripeKB << 10
	cfg.Check = s.Check
	cfg.Telemetry.ProbeInterval = s.ProbeInterval
	return cfg, s.Rule.Derive(s.Base, shard)
}

// RunShard simulates shard i to completion and returns its report. It is
// a pure function of (spec, shard) apart from the optional journal files,
// so shards can run in any order and on any goroutine.
func (s *Spec) RunShard(shard int) (rep rolo.Report, err error) {
	cfg, wl := s.ShardConfig(shard)
	recs, err := wl.Generate(cfg.VolumeBytes())
	if err != nil {
		return rolo.Report{}, fmt.Errorf("fleet: shard %d workload: %w", shard, err)
	}
	if s.Journal.Dir != "" {
		jc := s.Journal
		jc.Dir = filepath.Join(jc.Dir, fmt.Sprintf("shard-%05d", shard))
		sink, jerr := journal.NewRotatingWriter(jc)
		if jerr != nil {
			return rolo.Report{}, jerr
		}
		defer func() {
			if cerr := sink.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		cfg.Telemetry.Sink = sink
	}
	rep, err = rolo.Run(cfg, recs)
	if err != nil {
		return rolo.Report{}, fmt.Errorf("fleet: shard %d (%v): %w", shard, cfg.Scheme, err)
	}
	return rep, nil
}

// ParseSchemeList resolves a comma-separated scheme list; "all" expands
// to every scheme in paper order.
func ParseSchemeList(list string) ([]rolo.Scheme, error) {
	if list == "all" {
		return append([]rolo.Scheme(nil), rolo.Schemes...), nil
	}
	var out []rolo.Scheme
	for _, name := range strings.Split(list, ",") {
		sch, err := rolo.ParseScheme(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, sch)
	}
	return out, nil
}
