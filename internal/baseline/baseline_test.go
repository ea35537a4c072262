package baseline

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/metrics"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

func testArray(t *testing.T, pairs, extras int) (*array.Array, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	geom := raid.Geometry{
		Pairs:            pairs,
		StripeUnitBytes:  64 << 10,
		DataBytesPerDisk: 256 << 20,
	}
	cfg := disk.Ultrastar36Z15().WithCapacity(512 << 20)
	a, err := array.New(eng, geom, cfg, extras)
	if err != nil {
		t.Fatal(err)
	}
	return a, eng
}

// replay drives a record slice through the controller via the runner.
func replay(t *testing.T, eng *sim.Engine, a *array.Array, c array.Controller, recs []trace.Record) array.ReplayResult {
	t.Helper()
	res, err := array.Replay(eng, a, c, recs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func writeRecs(n int, size int64, gap sim.Time) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			At:     sim.Time(i) * gap,
			Op:     trace.Write,
			Offset: int64(i) * size,
			Size:   size,
		}
	}
	return recs
}

func TestRAID10WritesBothCopies(t *testing.T) {
	a, eng := testArray(t, 2, 0)
	c := NewRAID10(a)
	recs := writeRecs(16, 64<<10, 20*sim.Millisecond)
	replay(t, eng, a, c, recs)
	var prim, mirr int64
	for i := range a.Primaries {
		prim += a.Primaries[i].Stats().BytesWritten
		mirr += a.Mirrors[i].Stats().BytesWritten
	}
	want := int64(16 * 64 << 10)
	if prim != want || mirr != want {
		t.Fatalf("primary/mirror bytes = %d/%d, want %d each", prim, mirr, want)
	}
	if c.Responses().Count() != 16 {
		t.Fatalf("responses = %d", c.Responses().Count())
	}
	if got := a.TotalSpinCycles(); got != 0 {
		t.Fatalf("RAID10 spun disks %d times", got)
	}
}

func TestRAID10ReadsBalance(t *testing.T) {
	a, eng := testArray(t, 1, 0)
	c := NewRAID10(a)
	// A burst of simultaneous reads must spread across both copies.
	recs := make([]trace.Record, 10)
	for i := range recs {
		recs[i] = trace.Record{At: 0, Op: trace.Read, Offset: int64(i) * (64 << 10), Size: 64 << 10}
	}
	replay(t, eng, a, c, recs)
	p := a.Primaries[0].Stats().IOsCompleted
	m := a.Mirrors[0].Stats().IOsCompleted
	if p == 0 || m == 0 {
		t.Fatalf("reads not balanced: primary=%d mirror=%d", p, m)
	}
}

func TestRAID10RejectsBadRecord(t *testing.T) {
	a, _ := testArray(t, 1, 0)
	c := NewRAID10(a)
	if err := c.Submit(trace.Record{Op: trace.Write, Offset: a.Geom.VolumeBytes(), Size: 4096}); err == nil {
		t.Fatal("out-of-volume write accepted")
	}
	if err := c.Submit(trace.Record{Op: trace.Op(9), Offset: 0, Size: 4096}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func graidConfig() GRAIDConfig {
	cfg := DefaultGRAIDConfig()
	cfg.LogCapacityBytes = 16 << 20 // small log so destages trigger quickly
	return cfg
}

func TestNewGRAIDValidation(t *testing.T) {
	a, _ := testArray(t, 2, 0) // no extra disk
	if _, err := NewGRAID(a, graidConfig()); err == nil {
		t.Fatal("GRAID without log disk accepted")
	}
	a2, _ := testArray(t, 2, 1)
	bad := graidConfig()
	bad.DestageThreshold = 0
	if _, err := NewGRAID(a2, bad); err == nil {
		t.Fatal("zero threshold accepted")
	}
	a3, _ := testArray(t, 2, 1)
	bad = graidConfig()
	bad.LogCapacityBytes = 1 << 40
	if _, err := NewGRAID(a3, bad); err == nil {
		t.Fatal("log capacity beyond disk accepted")
	}
}

func TestGRAIDMirrorsSleepDuringLogging(t *testing.T) {
	a, eng := testArray(t, 2, 1)
	c, err := NewGRAID(a, graidConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Write less than the destage threshold.
	recs := writeRecs(16, 64<<10, 20*sim.Millisecond)
	replay(t, eng, a, c, recs)
	for i, m := range a.Mirrors {
		if m.State() != disk.Standby {
			t.Fatalf("mirror %d state = %v, want STANDBY", i, m.State())
		}
		if m.Stats().BytesWritten != 0 {
			t.Fatalf("mirror %d wrote %d bytes during logging", i, m.Stats().BytesWritten)
		}
	}
	if c.Destages() != 0 {
		t.Fatalf("unexpected destage: %d", c.Destages())
	}
	// Second copy landed on the log disk.
	if got := a.Extras[0].Stats().BytesWritten; got < 16*64<<10 {
		t.Fatalf("log disk wrote %d bytes", got)
	}
}

func TestGRAIDDestageCycle(t *testing.T) {
	a, eng := testArray(t, 2, 1)
	cfg := graidConfig() // 16 MB log, threshold 0.8 => destage after ~12.8 MB
	c, err := NewGRAID(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 300 x 64 KB = 18.75 MB of writes: exactly one destage triggers.
	recs := writeRecs(300, 64<<10, 20*sim.Millisecond)
	replay(t, eng, a, c, recs)
	if c.Destages() != 1 {
		t.Fatalf("destages = %d, want 1", c.Destages())
	}
	// Every mirror spun up exactly once for the destage (Table I: one
	// spin cycle per mirror per destage).
	for i, m := range a.Mirrors {
		if got := m.SpinCycles(); got != 1 {
			t.Fatalf("mirror %d spin cycles = %d, want 1", i, got)
		}
		if m.Stats().BytesWritten == 0 {
			t.Fatalf("mirror %d never caught up", i)
		}
		if m.State() != disk.Standby {
			t.Fatalf("mirror %d state = %v after destage, want STANDBY", i, m.State())
		}
	}
	// Phase log alternates logging -> destaging -> logging.
	ivs := c.Phases().Intervals()
	if len(ivs) < 3 {
		t.Fatalf("phase intervals = %d, want >= 3", len(ivs))
	}
	if ivs[0].Phase != metrics.Logging || ivs[1].Phase != metrics.Destaging {
		t.Fatalf("phases = %v,%v", ivs[0].Phase, ivs[1].Phase)
	}
	if c.Phases().DestagingIntervalRatio() <= 0 {
		t.Fatal("destaging interval ratio not measured")
	}
}

func TestGRAIDReadsFromPrimaries(t *testing.T) {
	a, eng := testArray(t, 2, 1)
	c, err := NewGRAID(a, graidConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := []trace.Record{
		{At: 0, Op: trace.Write, Offset: 0, Size: 64 << 10},
		{At: 50 * sim.Millisecond, Op: trace.Read, Offset: 0, Size: 64 << 10},
		{At: 100 * sim.Millisecond, Op: trace.Read, Offset: 10 << 20, Size: 64 << 10},
	}
	replay(t, eng, a, c, recs)
	for i, m := range a.Mirrors {
		if m.Stats().BytesRead != 0 {
			t.Fatalf("mirror %d serviced reads while asleep", i)
		}
	}
	if c.Responses().Count() != 3 {
		t.Fatalf("responses = %d", c.Responses().Count())
	}
}

func TestGRAIDMirrorConsistencyAfterDestage(t *testing.T) {
	a, eng := testArray(t, 2, 1)
	c, err := NewGRAID(a, graidConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := writeRecs(300, 64<<10, 20*sim.Millisecond)
	replay(t, eng, a, c, recs)
	// After the run every pair's dirty set only holds post-destage
	// writes; the destaged bytes must equal what the mirrors received.
	var mirrorBytes int64
	for i := range a.Mirrors {
		mirrorBytes += a.Mirrors[i].Stats().BytesWritten
	}
	_, _, remaining := c.TelemetryGauges()
	total := int64(300 * 64 << 10)
	if mirrorBytes+remaining < total {
		t.Fatalf("mirror bytes %d + remaining dirty %d < written %d: lost updates",
			mirrorBytes, remaining, total)
	}
}

func TestGRAIDSpinCountScalesWithDestages(t *testing.T) {
	a, eng := testArray(t, 2, 1)
	cfg := graidConfig()
	c, err := NewGRAID(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ~64 MB of writes over a long window: about 4-5 destage cycles.
	recs := writeRecs(1000, 64<<10, 50*sim.Millisecond)
	replay(t, eng, a, c, recs)
	if c.Destages() < 3 {
		t.Fatalf("destages = %d, want >= 3", c.Destages())
	}
	want := c.Destages() * len(a.Mirrors)
	if got := a.TotalSpinCycles(); got != want {
		t.Fatalf("spin cycles = %d, want destages x mirrors = %d", got, want)
	}
}

func TestGRAIDGenerationIsolation(t *testing.T) {
	// Writes logged while a destage is reclaiming the previous generation
	// must survive the reclamation: only the destaged generation's
	// extents are released.
	a, eng := testArray(t, 2, 1)
	c, err := NewGRAID(a, graidConfig()) // 16 MB log, threshold 0.8
	if err != nil {
		t.Fatal(err)
	}
	// Fill past the threshold to trigger the destage...
	recs := writeRecs(205, 64<<10, 5*sim.Millisecond)
	for i := range recs {
		rec := recs[i]
		if err := eng.Schedule(rec.At, func(sim.Time) {
			if err := c.Submit(rec); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(recs[len(recs)-1].At)
	if !c.Destaging() {
		t.Skip("destage completed before mid-flight writes could be injected")
	}
	// ...then log more while the destage runs.
	during := 0
	for i := 0; i < 8; i++ {
		if err := c.Submit(trace.Record{
			At: eng.Now(), Op: trace.Write, Offset: int64(i) << 20, Size: 64 << 10,
		}); err != nil {
			t.Fatal(err)
		}
		during++
	}
	eng.Run()
	if c.Destages() < 1 {
		t.Fatal("no destage happened")
	}
	// The during-destage generation remains live in the log.
	if got, _, _ := c.TelemetryGauges(); got < int64(during)*(64<<10) {
		t.Fatalf("log holds %d bytes, want >= %d (mid-destage writes reclaimed too early)",
			got, during*(64<<10))
	}
}
