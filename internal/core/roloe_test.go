package core

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

func TestEConfigValidate(t *testing.T) {
	if err := DefaultEConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mutations := []func(*EConfig){
		func(c *EConfig) { c.DestageFreeFraction = 0 },
		func(c *EConfig) { c.DestageFreeFraction = 1 },
		func(c *EConfig) { c.CacheFraction = 1 },
		func(c *EConfig) { c.CacheFraction = -0.1 },
		func(c *EConfig) { c.CacheBlockBytes = 0 },
		func(c *EConfig) { c.MissIdleSpinDown = 0 },
	}
	for i, m := range mutations {
		cfg := DefaultEConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRoLoEInitialStates(t *testing.T) {
	a, _ := testArray(t, 4)
	e, err := NewE(a, DefaultEConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Primaries[0].State() != disk.Idle || a.Mirrors[0].State() != disk.Idle {
		t.Fatal("on-duty pair not awake")
	}
	for p := 1; p < 4; p++ {
		if a.Primaries[p].State() != disk.Standby {
			t.Fatalf("primary %d state = %v, want STANDBY", p, a.Primaries[p].State())
		}
		if a.Mirrors[p].State() != disk.Standby {
			t.Fatalf("mirror %d state = %v, want STANDBY", p, a.Mirrors[p].State())
		}
	}
	_ = e
}

func TestRoLoEWritesGoToOnDutyPairOnly(t *testing.T) {
	a, eng := testArray(t, 4)
	e, err := NewE(a, DefaultEConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := writeRecs(32, 64<<10, 20*sim.Millisecond)
	replay(t, eng, a, e, recs)
	want := int64(32 * 64 << 10)
	if got := a.Primaries[0].Stats().BytesWritten; got < want {
		t.Fatalf("on-duty primary wrote %d, want >= %d", got, want)
	}
	if got := a.Mirrors[0].Stats().BytesWritten; got < want {
		t.Fatalf("on-duty mirror wrote %d, want >= %d", got, want)
	}
	for p := 1; p < 4; p++ {
		if a.Primaries[p].Stats().BytesWritten != 0 || a.Mirrors[p].Stats().BytesWritten != 0 {
			t.Fatalf("off-duty pair %d was written during logging", p)
		}
	}
	if e.Destages() != 0 {
		t.Fatalf("unexpected destage: %d", e.Destages())
	}
}

func TestRoLoEReadHitServedWithoutSpinUp(t *testing.T) {
	a, eng := testArray(t, 4)
	e, err := NewE(a, DefaultEConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Write a block (it lands in the log), then read it back: the latest
	// copy is on the on-duty pair, so no spin-up may occur.
	recs := []trace.Record{
		{At: 0, Op: trace.Write, Offset: 128 << 20, Size: 64 << 10},
		{At: sim.Second, Op: trace.Read, Offset: 128 << 20, Size: 64 << 10},
	}
	replay(t, eng, a, e, recs)
	if e.ReadHits() != 1 || e.ReadMisses() != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0", e.ReadHits(), e.ReadMisses())
	}
	if got := a.TotalSpinCycles(); got != 0 {
		t.Fatalf("spin cycles = %d, want 0", got)
	}
	// The hit must be fast: no spin-up latency in the response.
	if mean := e.Responses().Mean(); mean > 100 {
		t.Fatalf("mean response %.1f ms suggests a spin-up happened", mean)
	}
}

func TestRoLoEReadMissSpinsUpAndCaches(t *testing.T) {
	a, eng := testArray(t, 4)
	cfg := DefaultEConfig()
	e, err := NewE(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cold read of pair 2's data: target primary must wake (a >10 s
	// penalty); an identical read shortly after must hit the cache.
	off := int64(2) * (64 << 10) // stripe 2 -> pair 2
	recs := []trace.Record{
		{At: 0, Op: trace.Read, Offset: off, Size: 64 << 10},
		{At: 15 * sim.Second, Op: trace.Read, Offset: off, Size: 64 << 10},
	}
	replay(t, eng, a, e, recs)
	if e.ReadMisses() != 1 || e.ReadHits() != 1 {
		t.Fatalf("misses/hits = %d/%d, want 1/1", e.ReadMisses(), e.ReadHits())
	}
	if got := a.Primaries[2].SpinCycles(); got != 1 {
		t.Fatalf("target primary spin cycles = %d, want 1", got)
	}
	// The miss paid the spin-up; the hit did not.
	if p99 := e.Responses().Max().Seconds(); p99 < 10 {
		t.Fatalf("max response %.2f s: miss did not pay the spin-up", p99)
	}
}

func TestRoLoEMissAwakenedDiskSpinsBackDown(t *testing.T) {
	a, eng := testArray(t, 4)
	cfg := DefaultEConfig()
	cfg.MissIdleSpinDown = 2 * sim.Second
	e, err := NewE(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(2) * (64 << 10)
	recs := []trace.Record{
		{At: 0, Op: trace.Read, Offset: off, Size: 64 << 10},
		// Keep the trace horizon far enough out for the timer to fire.
		{At: sim.Minute, Op: trace.Write, Offset: 0, Size: 64 << 10},
	}
	replay(t, eng, a, e, recs)
	if got := a.Primaries[2].State(); got != disk.Standby {
		t.Fatalf("miss-awakened primary state = %v, want STANDBY again", got)
	}
	if got := a.Primaries[2].SpinCycles(); got != 1 {
		t.Fatalf("spin cycles = %d, want exactly 1", got)
	}
	_ = e
}

func TestRoLoECentralizedDestageAndRotation(t *testing.T) {
	a, eng := testArray(t, 4)
	e, err := NewE(a, DefaultEConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Log space is (1-0.25)x64 MB = 48 MB; write ~90 MB to force at
	// least one centralized destage.
	recs := writeRecs(1440, 64<<10, 20*sim.Millisecond)
	replay(t, eng, a, e, recs)
	if e.Destages() < 1 {
		t.Fatalf("destages = %d, want >= 1", e.Destages())
	}
	if e.Rotations() != e.Destages() {
		t.Fatalf("rotations %d != destages %d: RoLo-E rotates at each destage",
			e.Rotations(), e.Destages())
	}
	// Each destage hands duty to the next pair.
	if want := e.Destages() % a.Geom.Pairs; e.onDuty != want {
		t.Fatalf("pair %d on duty after %d destages, want %d", e.onDuty, e.Destages(), want)
	}
	// The destage wrote the logged data to both disks of dirty pairs.
	var offDutyWrites int64
	for p := 0; p < 4; p++ {
		offDutyWrites += a.Primaries[p].Stats().BytesWritten
	}
	if offDutyWrites == 0 {
		t.Fatal("no data was ever applied to data regions")
	}
	// After the final destage + rotation, exactly one pair is awake once
	// spin-downs settle.
	awake := 0
	for _, d := range a.AllDisks() {
		if s := d.State(); s == disk.Idle || s == disk.Active {
			awake++
		}
	}
	if awake != 2 {
		t.Fatalf("%d disks awake after drain, want 2 (one pair)", awake)
	}
}

func TestRoLoEPhaseLogAlternates(t *testing.T) {
	a, eng := testArray(t, 4)
	e, err := NewE(a, DefaultEConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := writeRecs(1440, 64<<10, 20*sim.Millisecond)
	replay(t, eng, a, e, recs)
	ivs := e.Phases().Intervals()
	if len(ivs) < 2 {
		t.Fatalf("phase intervals = %d", len(ivs))
	}
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Phase == ivs[i-1].Phase {
			t.Fatalf("phases did not alternate at %d", i)
		}
	}
}

func TestNewEValidation(t *testing.T) {
	a, _ := testArray(t, 4)
	bad := DefaultEConfig()
	bad.CacheFraction = 0.99999 // leaves no log space on tiny regions
	if _, err := NewE(a, bad); err == nil {
		t.Skip("tiny region still had log space") // acceptable; config-dependent
	}
	eng := sim.New()
	geomOne := a.Geom
	geomOne.Pairs = 1
	one, err := arrayForGeom(t, geomOne)
	if err != nil {
		t.Fatal(err)
	}
	_ = eng
	if _, err := NewE(one, DefaultEConfig()); err == nil {
		t.Error("single-pair array accepted")
	}
}
