package array

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/intervals"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

func testArray(t *testing.T, pairs, extras int) (*Array, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	geom := raid.Geometry{
		Pairs:            pairs,
		StripeUnitBytes:  64 << 10,
		DataBytesPerDisk: 512 << 20,
	}
	cfg := disk.Ultrastar36Z15().WithCapacity(1 << 30)
	a, err := New(eng, geom, cfg, extras)
	if err != nil {
		t.Fatal(err)
	}
	return a, eng
}

func TestNewValidation(t *testing.T) {
	eng := sim.New()
	cfg := disk.Ultrastar36Z15().WithCapacity(1 << 30)
	if _, err := New(eng, raid.Geometry{}, cfg, 0); err == nil {
		t.Error("invalid geometry accepted")
	}
	big := raid.Geometry{Pairs: 2, StripeUnitBytes: 64 << 10, DataBytesPerDisk: 2 << 30}
	if _, err := New(eng, big, cfg, 0); err == nil {
		t.Error("data region larger than disk accepted")
	}
}

func TestArrayLayout(t *testing.T) {
	a, _ := testArray(t, 3, 1)
	if len(a.Primaries) != 3 || len(a.Mirrors) != 3 || len(a.Extras) != 1 {
		t.Fatalf("layout %d/%d/%d", len(a.Primaries), len(a.Mirrors), len(a.Extras))
	}
	if got := len(a.AllDisks()); got != 7 {
		t.Fatalf("AllDisks = %d, want 7", got)
	}
	// IDs must be unique.
	seen := map[int]bool{}
	for _, d := range a.AllDisks() {
		if seen[d.ID()] {
			t.Fatalf("duplicate disk ID %d", d.ID())
		}
		seen[d.ID()] = true
	}
	if got := a.LogRegionBytes(); got != (1<<30)-(512<<20) {
		t.Fatalf("LogRegionBytes = %d", got)
	}
}

func TestSectorRange(t *testing.T) {
	cases := []struct {
		off, length, lba, sectors int64
	}{
		{0, 512, 0, 1},
		{0, 513, 0, 2},
		{512, 512, 1, 1},
		{100, 100, 0, 1},
		{511, 2, 0, 2},
		{1024, 4096, 2, 8},
	}
	for _, c := range cases {
		lba, sectors := SectorRange(c.off, c.length)
		if lba != c.lba || sectors != c.sectors {
			t.Errorf("SectorRange(%d,%d) = (%d,%d), want (%d,%d)",
				c.off, c.length, lba, sectors, c.lba, c.sectors)
		}
	}
}

func TestLogIOAddressesLogRegion(t *testing.T) {
	a, _ := testArray(t, 2, 0)
	io := a.LogIO(0, 4096, true, false)
	wantLBA := (int64(512) << 20) / disk.SectorSize
	if io.LBA != wantLBA {
		t.Fatalf("log IO LBA = %d, want %d (start of log region)", io.LBA, wantLBA)
	}
	dataIO := a.DataIO(0, 4096, true, false)
	if dataIO.LBA != 0 {
		t.Fatalf("data IO LBA = %d, want 0", dataIO.LBA)
	}
}

func TestJoin(t *testing.T) {
	fired := 0
	j := NewJoin(3, func(sim.Time) { fired++ })
	j.Done(1)
	j.Done(2)
	if fired != 0 {
		t.Fatal("join fired early")
	}
	j.Done(3)
	if fired != 1 {
		t.Fatalf("join fired %d times, want 1", fired)
	}
}

func TestCopierCopiesEverything(t *testing.T) {
	a, eng := testArray(t, 1, 0)
	var work intervals.Set
	work.Add(0, 3<<20)
	work.Add(10<<20, 11<<20)
	cp := NewCopier(eng, a.Primaries[0], []*disk.Disk{a.Mirrors[0]}, &work, 1<<20,
		func(sp intervals.Span) *disk.IO { return a.DataIO(sp.Start, sp.Len(), false, true) },
		func(sp intervals.Span) *disk.IO { return a.DataIO(sp.Start, sp.Len(), true, true) },
	)
	var drainedAt sim.Time
	cp.OnDrained = func(now sim.Time) { drainedAt = now }
	cp.Kick()
	eng.Run()
	if cp.Err() != nil {
		t.Fatal(cp.Err())
	}
	if got := cp.BytesCopied(); got != 4<<20 {
		t.Fatalf("BytesCopied = %d, want %d", got, 4<<20)
	}
	if drainedAt == 0 {
		t.Fatal("OnDrained never fired")
	}
	src := a.Primaries[0].Stats()
	dst := a.Mirrors[0].Stats()
	if src.BytesRead < 4<<20 {
		t.Fatalf("source read %d bytes", src.BytesRead)
	}
	if dst.BytesWritten < 4<<20 {
		t.Fatalf("destination wrote %d bytes", dst.BytesWritten)
	}
	if src.BackgroundIOs == 0 || dst.BackgroundIOs == 0 {
		t.Fatal("copier must run at background priority")
	}
}

func TestCopierYieldsToForeground(t *testing.T) {
	a, eng := testArray(t, 1, 0)
	var work intervals.Set
	work.Add(0, 50<<20) // long copy
	cp := NewCopier(eng, a.Primaries[0], []*disk.Disk{a.Mirrors[0]}, &work, 1<<20,
		func(sp intervals.Span) *disk.IO { return a.DataIO(sp.Start, sp.Len(), false, true) },
		func(sp intervals.Span) *disk.IO { return a.DataIO(sp.Start, sp.Len(), true, true) },
	)
	cp.Kick()
	// A foreground read arriving mid-copy must complete long before the
	// copy does: it only ever waits for one in-flight chunk.
	var fgDone sim.Time
	eng.After(100*sim.Millisecond, func(sim.Time) {
		io := a.DataIO(400<<20, 64<<10, false, false)
		io.OnDone = func(now sim.Time) { fgDone = now }
		if err := a.Primaries[0].Submit(io); err != nil {
			t.Errorf("fg submit: %v", err)
		}
	})
	eng.Run()
	if fgDone == 0 {
		t.Fatal("foreground IO never completed")
	}
	latency := fgDone - 100*sim.Millisecond
	if latency > 60*sim.Millisecond {
		t.Fatalf("foreground latency %v behind background copy; want under ~60ms", latency)
	}
}

func TestCopierRefillWhileRunning(t *testing.T) {
	a, eng := testArray(t, 1, 0)
	var work intervals.Set
	work.Add(0, 1<<20)
	drains := 0
	cp := NewCopier(eng, a.Primaries[0], []*disk.Disk{a.Mirrors[0]}, &work, 1<<20,
		func(sp intervals.Span) *disk.IO { return a.DataIO(sp.Start, sp.Len(), false, true) },
		func(sp intervals.Span) *disk.IO { return a.DataIO(sp.Start, sp.Len(), true, true) },
	)
	cp.OnDrained = func(sim.Time) { drains++ }
	cp.Kick()
	eng.After(sim.Millisecond, func(sim.Time) {
		work.Add(5<<20, 6<<20)
		cp.Kick()
	})
	eng.Run()
	if cp.BytesCopied() != 2<<20 {
		t.Fatalf("BytesCopied = %d, want %d", cp.BytesCopied(), 2<<20)
	}
}

func TestSpinDownWhenIdleImmediate(t *testing.T) {
	a, eng := testArray(t, 1, 0)
	SpinDownWhenIdle(eng, a.Mirrors[0], nil)
	eng.Run()
	if a.Mirrors[0].State() != disk.Standby {
		t.Fatalf("state = %v, want STANDBY", a.Mirrors[0].State())
	}
}

func TestSpinDownWhenIdleWaitsForDrain(t *testing.T) {
	a, eng := testArray(t, 1, 0)
	d := a.Mirrors[0]
	if err := d.Submit(a.DataIO(0, 8<<20, true, false)); err != nil {
		t.Fatal(err)
	}
	SpinDownWhenIdle(eng, d, nil)
	eng.Run()
	if d.State() != disk.Standby {
		t.Fatalf("state = %v, want STANDBY after drain", d.State())
	}
	st := d.Stats()
	if st.IOsCompleted != 1 {
		t.Fatal("IO was lost")
	}
}

func TestSpinDownWhenIdleAbortsOnPredicate(t *testing.T) {
	a, eng := testArray(t, 1, 0)
	d := a.Mirrors[0]
	if err := d.Submit(a.DataIO(0, 8<<20, true, false)); err != nil {
		t.Fatal(err)
	}
	keep := false
	SpinDownWhenIdle(eng, d, func() bool { return keep })
	eng.Run()
	if d.State() == disk.Standby {
		t.Fatal("spin-down proceeded despite false predicate")
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	a, eng := testArray(t, 1, 0)
	if _, err := Replay(eng, a, nopController{}, nil); err == nil {
		t.Fatal("empty trace accepted")
	}
}

type nopController struct{}

func (nopController) Submit(trace.Record) error { return nil }
func (nopController) Close(sim.Time)            {}

func TestStateDurationsAggregates(t *testing.T) {
	a, eng := testArray(t, 2, 0)
	eng.After(2*sim.Second, func(sim.Time) {})
	eng.Run()
	durs := StateDurations(a.AllDisks())
	if got := durs[disk.Idle]; got != 4*2*sim.Second {
		t.Fatalf("aggregate idle = %v, want 8s across 4 disks", got)
	}
}
