package rolo

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

func TestParseScheme(t *testing.T) {
	for _, s := range Schemes {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("raid10"); err == nil {
		t.Error("lowercase name accepted (names are exact)")
	}
	if _, err := ParseScheme(""); err == nil {
		t.Error("empty name accepted")
	}
}

func TestSchemeString(t *testing.T) {
	if Scheme(0).String() == "" || Scheme(99).String() == "" {
		t.Error("unknown schemes must still render")
	}
}

func TestConfigValidate(t *testing.T) {
	for _, s := range Schemes {
		if err := DefaultConfig(s).Validate(); err != nil {
			t.Errorf("default %v config rejected: %v", s, err)
		}
	}
	bad := []func(*Config){
		func(c *Config) { c.Scheme = 0 },
		func(c *Config) { c.Pairs = 0 },
		func(c *Config) { c.FreeBytesPerDisk = c.Disk.CapacityBytes },
		func(c *Config) { c.FreeBytesPerDisk = -1 },
		func(c *Config) { c.Disk.CapacityBytes = 0 },
		func(c *Config) { c.StripeUnitBytes = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(SchemeRAID10)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGeometryDerivation(t *testing.T) {
	cfg := DefaultConfig(SchemeRoLoP)
	g := cfg.Geometry()
	if g.DataBytesPerDisk%cfg.StripeUnitBytes != 0 {
		t.Error("data region not stripe-aligned")
	}
	if g.DataBytesPerDisk+cfg.FreeBytesPerDisk > cfg.Disk.CapacityBytes {
		t.Error("data + free exceeds disk")
	}
	if cfg.VolumeBytes() != int64(cfg.Pairs)*g.DataBytesPerDisk {
		t.Error("volume size mismatch")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cfg := smallConfig(SchemeRAID10)
	if _, err := Run(cfg, nil); err == nil {
		t.Error("empty trace accepted")
	}
	badRecs := []trace.Record{{At: 0, Op: trace.Write, Offset: cfg.VolumeBytes(), Size: 4096}}
	if _, err := Run(cfg, badRecs); err == nil {
		t.Error("out-of-volume trace accepted")
	}
	badCfg := cfg
	badCfg.Pairs = -1
	good := []trace.Record{{At: 0, Op: trace.Write, Offset: 0, Size: 4096}}
	if _, err := Run(badCfg, good); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := smallConfig(SchemeRoLoP)
	recs := writeHeavy(t, cfg, 50, 30*sim.Second, 0.9)
	a, err := Run(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	if a.EnergyJ != b.EnergyJ || a.MeanResponseMs != b.MeanResponseMs ||
		a.SpinCycles != b.SpinCycles || a.Rotations != b.Rotations {
		t.Fatalf("non-deterministic runs:\n%+v\n%+v", a, b)
	}
}

func TestGenerateProfileErrors(t *testing.T) {
	cfg := DefaultConfig(SchemeRAID10)
	if _, err := GenerateProfile("nope", cfg, 0.1); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := GenerateProfile("src2_2", cfg, 0); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestReportStateSecondsCoverHorizon(t *testing.T) {
	cfg := smallConfig(SchemeRoLoP)
	recs := writeHeavy(t, cfg, 50, 30*sim.Second, 1.0)
	rep, err := Run(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range rep.StateSeconds {
		total += v
	}
	// Aggregate state time = disks x drained duration.
	want := float64(2*cfg.Pairs) * rep.DrainedAt.Seconds()
	if total < want*0.999 || total > want*1.001 {
		t.Fatalf("state seconds %.1f, want ~%.1f", total, want)
	}
}
