package core

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

// testArray builds a small array: 4 pairs, 256 MB data + 64 MB log space
// per disk, so logger rotations happen after ~tens of MB of writes.
func testArray(t *testing.T, pairs int) (*array.Array, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	geom := raid.Geometry{
		Pairs:            pairs,
		StripeUnitBytes:  64 << 10,
		DataBytesPerDisk: 256 << 20,
	}
	cfg := disk.Ultrastar36Z15().WithCapacity(320 << 20) // 64 MB log region
	a, err := array.New(eng, geom, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return a, eng
}

// arrayForGeom builds an array with the test disk model for an arbitrary
// geometry.
func arrayForGeom(t *testing.T, geom raid.Geometry) (*array.Array, error) {
	t.Helper()
	return array.New(sim.New(), geom, disk.Ultrastar36Z15().WithCapacity(320<<20), 0)
}

func replay(t *testing.T, eng *sim.Engine, a *array.Array, c array.Controller, recs []trace.Record) {
	t.Helper()
	if _, err := array.Replay(eng, a, c, recs); err != nil {
		t.Fatal(err)
	}
}

func writeRecs(n int, size int64, gap sim.Time) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			At:     sim.Time(i) * gap,
			Op:     trace.Write,
			Offset: (int64(i) * size * 7) % (900 << 20), // scattered but bounded
			Size:   size,
		}
	}
	return recs
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.RotateFreeFraction = 0 },
		func(c *Config) { c.RotateFreeFraction = 1 },
		func(c *Config) { c.SpinUpLeadFreeFraction = c.RotateFreeFraction / 2 },
		func(c *Config) { c.DeactivateFreeFraction = c.RotateFreeFraction + 0.1 },
	}
	for i, m := range mutations {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewRejectsBadSetups(t *testing.T) {
	a, _ := testArray(t, 4)
	if _, err := New(a, FlavorE, DefaultConfig()); err == nil {
		t.Error("New accepted FlavorE")
	}
	if _, err := New(a, FlavorP, Config{}); err == nil {
		t.Error("New accepted zero config")
	}
	// One pair cannot rotate.
	eng := sim.New()
	geom := raid.Geometry{Pairs: 1, StripeUnitBytes: 64 << 10, DataBytesPerDisk: 256 << 20}
	one, err := array.New(eng, geom, disk.Ultrastar36Z15().WithCapacity(320<<20), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(one, FlavorP, DefaultConfig()); err == nil {
		t.Error("single-pair array accepted")
	}
}

func TestRoLoPInitialStates(t *testing.T) {
	a, _ := testArray(t, 4)
	r, err := New(a, FlavorP, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.OnDuty() != 0 {
		t.Fatalf("on-duty = %d, want 0", r.OnDuty())
	}
	for i, p := range a.Primaries {
		if p.State() != disk.Idle {
			t.Fatalf("primary %d state = %v", i, p.State())
		}
	}
	if a.Mirrors[0].State() != disk.Idle {
		t.Fatalf("on-duty mirror state = %v", a.Mirrors[0].State())
	}
	for i := 1; i < 4; i++ {
		if a.Mirrors[i].State() != disk.Standby {
			t.Fatalf("off-duty mirror %d state = %v", i, a.Mirrors[i].State())
		}
	}
}

func TestRoLoPLogsOnOnDutyMirror(t *testing.T) {
	a, eng := testArray(t, 4)
	r, err := New(a, FlavorP, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := writeRecs(32, 64<<10, 20*sim.Millisecond)
	replay(t, eng, a, r, recs)
	if err := r.CheckErr(); err != nil {
		t.Fatal(err)
	}
	want := int64(32 * 64 << 10)
	// All second copies went to mirror 0's logging region.
	if got := a.Mirrors[0].Stats().BytesWritten; got < want {
		t.Fatalf("on-duty mirror wrote %d, want >= %d", got, want)
	}
	for i := 1; i < 4; i++ {
		if got := a.Mirrors[i].Stats().BytesWritten; got != 0 {
			t.Fatalf("off-duty mirror %d wrote %d bytes", i, got)
		}
	}
	if r.Rotations() != 0 {
		t.Fatalf("rotations = %d, want 0 for small write volume", r.Rotations())
	}
	if r.Responses().Count() != 32 {
		t.Fatalf("responses = %d", r.Responses().Count())
	}
}

func TestRoLoRThreeCopies(t *testing.T) {
	a, eng := testArray(t, 4)
	r, err := New(a, FlavorR, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Write to pair 2 only: primary 2 gets the data copy; primary 0 and
	// mirror 0 (the on-duty logger pair) each get a log copy.
	recs := make([]trace.Record, 8)
	for i := range recs {
		// Stripe 2 of each row lands on pair 2.
		off := int64(2)*(64<<10) + int64(i)*4*(64<<10)
		recs[i] = trace.Record{At: sim.Time(i) * 20 * sim.Millisecond, Op: trace.Write, Offset: off, Size: 64 << 10}
	}
	replay(t, eng, a, r, recs)
	want := int64(8 * 64 << 10)
	if got := a.Primaries[2].Stats().BytesWritten; got != want {
		t.Fatalf("target primary wrote %d, want %d", got, want)
	}
	if got := a.Primaries[0].Stats().BytesWritten; got != want {
		t.Fatalf("logger primary wrote %d, want %d", got, want)
	}
	if got := a.Mirrors[0].Stats().BytesWritten; got != want {
		t.Fatalf("logger mirror wrote %d, want %d", got, want)
	}
}

// scaledConfig widens the spin-up lead so the ~11 s wake-up latency fits
// the miniature 64 MB loggers used in tests (at the paper's 8 GB loggers
// the default lead is ample).
func scaledConfig() Config {
	cfg := DefaultConfig()
	cfg.SpinUpLeadFreeFraction = 0.5
	cfg.RotateFreeFraction = 0.15
	return cfg
}

func TestRoLoRotationAndReclamation(t *testing.T) {
	a, eng := testArray(t, 4)
	r, err := New(a, FlavorP, scaledConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 64 MB log per mirror; write ~200 MB so the logger must rotate
	// several times and reuse reclaimed space.
	recs := writeRecs(3200, 64<<10, 20*sim.Millisecond)
	replay(t, eng, a, r, recs)
	if err := r.CheckErr(); err != nil {
		t.Fatal(err)
	}
	if r.Rotations() < 3 {
		t.Fatalf("rotations = %d, want >= 3", r.Rotations())
	}
	if r.DirectWrites() > int64(len(recs)/5) {
		t.Fatalf("direct writes = %d of %d: reclamation is not keeping up",
			r.DirectWrites(), len(recs))
	}
	// Rotation reuses reclaimed space: total logged bytes exceed a single
	// logger's capacity.
	var logged int64
	for _, m := range a.Mirrors {
		logged += m.Stats().BytesWritten
	}
	if logged < 2*a.LogRegionBytes() {
		t.Fatalf("logged %d bytes, want > 2x one logger (%d): space was not recycled",
			logged, a.LogRegionBytes())
	}
	// Every mirror took at least one logging turn.
	for i, m := range a.Mirrors {
		if m.Stats().BytesWritten == 0 {
			t.Fatalf("mirror %d never participated", i)
		}
	}
}

func TestRoLoDecentralizedDestageUsesBackground(t *testing.T) {
	a, eng := testArray(t, 4)
	r, err := New(a, FlavorP, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := writeRecs(3200, 64<<10, 10*sim.Millisecond)
	replay(t, eng, a, r, recs)
	var bgReads, bgWrites int64
	for _, d := range a.Primaries {
		bgReads += d.Stats().BackgroundIOs
	}
	for _, d := range a.Mirrors {
		bgWrites += d.Stats().BackgroundIOs
	}
	if bgReads == 0 || bgWrites == 0 {
		t.Fatalf("destaging must run at background priority (bg reads=%d writes=%d)",
			bgReads, bgWrites)
	}
}

func TestRoLoConsistencyInvariants(t *testing.T) {
	// Dirty spans persist for pairs still waiting for their on-duty turn
	// (the paper's Figure 5: D0T0 is only reclaimed in T3), but three
	// invariants must hold once the run drains:
	//  1. no destage is still live;
	//  2. every dirty byte has a logged copy (dirty <= allocated log);
	//  3. a pair with no dirt holds no live log allocations anywhere —
	//     its extents were proactively reclaimed.
	for _, flavor := range []Flavor{FlavorP, FlavorR} {
		flavor := flavor
		t.Run(flavor.String(), func(t *testing.T) {
			a, eng := testArray(t, 4)
			r, err := New(a, flavor, scaledConfig())
			if err != nil {
				t.Fatal(err)
			}
			recs := writeRecs(1600, 64<<10, 20*sim.Millisecond)
			replay(t, eng, a, r, recs)
			if err := r.CheckErr(); err != nil {
				t.Fatal(err)
			}
			for p := range r.destageLive {
				if r.destageLive[p] {
					t.Fatalf("destage %d still live after drain", p)
				}
			}
			if r.DirectWrites() != 0 {
				t.Skipf("direct writes occurred (%d); per-tag invariant does not apply", r.DirectWrites())
			}
			if logged, _, dirty := r.TelemetryGauges(); dirty > logged {
				t.Fatalf("dirty %d exceeds live log allocations %d", dirty, logged)
			}
			checkRoLoInvariants(t, r, false)
		})
	}
}

func TestRoLoReadsServedByPrimaries(t *testing.T) {
	a, eng := testArray(t, 4)
	r, err := New(a, FlavorP, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := []trace.Record{
		{At: 0, Op: trace.Read, Offset: 0, Size: 64 << 10},
		{At: 20 * sim.Millisecond, Op: trace.Read, Offset: 300 << 20, Size: 64 << 10},
	}
	replay(t, eng, a, r, recs)
	var primReads int64
	for _, p := range a.Primaries {
		primReads += p.Stats().BytesRead
	}
	if primReads != 2*64<<10 {
		t.Fatalf("primaries read %d bytes, want %d", primReads, 2*64<<10)
	}
	// No read should ever wake a sleeping mirror in RoLo-P.
	for i := 1; i < 4; i++ {
		if a.Mirrors[i].SpinCycles() != 0 {
			t.Fatalf("mirror %d spun up for a read", i)
		}
	}
}

func TestRoLoSpinCyclesTrackRotations(t *testing.T) {
	a, eng := testArray(t, 4)
	r, err := New(a, FlavorP, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := writeRecs(3200, 64<<10, 10*sim.Millisecond)
	replay(t, eng, a, r, recs)
	// Each rotation wakes exactly one mirror: total spin-ups should be
	// close to the rotation count (the paper's 10x advantage over GRAID).
	spins := a.TotalSpinCycles()
	if spins > r.Rotations()+len(a.Mirrors) {
		t.Fatalf("spin cycles %d far exceed rotations %d", spins, r.Rotations())
	}
}
