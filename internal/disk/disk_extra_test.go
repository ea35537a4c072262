package disk

import (
	"errors"
	"math"
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
)

func TestAccessors(t *testing.T) {
	eng := sim.New()
	d, err := New(7, Ultrastar36Z15(), eng)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID() != 7 {
		t.Errorf("ID = %d", d.ID())
	}
	if d.Config().Model != "IBM Ultrastar 36Z15" {
		t.Errorf("Config model = %q", d.Config().Model)
	}
	if d.ForegroundPending() {
		t.Error("fresh disk reports foreground pending")
	}
	if err := d.Submit(&IO{LBA: 0, Sectors: 8}); err != nil {
		t.Fatal(err)
	}
	if !d.ForegroundPending() {
		t.Error("in-flight foreground not reported")
	}
	eng.Run()
	if d.ForegroundPending() {
		t.Error("drained disk reports foreground pending")
	}
}

func TestWithCapacity(t *testing.T) {
	c := Ultrastar36Z15().WithCapacity(1 << 30)
	if c.CapacityBytes != 1<<30 {
		t.Fatalf("capacity = %d", c.CapacityBytes)
	}
	if c.RPM != Ultrastar36Z15().RPM {
		t.Fatal("WithCapacity must not touch other parameters")
	}
}

func TestPowerStateStrings(t *testing.T) {
	want := map[PowerState]string{
		Active: "ACTIVE", Idle: "IDLE", Standby: "STANDBY",
		SpinningUp: "SPINUP", SpinningDown: "SPINDOWN",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), name)
		}
	}
	if PowerState(42).String() == "" {
		t.Error("unknown state renders empty")
	}
}

func TestSetAlwaysActiveEnergy(t *testing.T) {
	eng := sim.New()
	d, err := New(0, Ultrastar36Z15(), eng)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAlwaysActive(true)
	eng.After(10*sim.Second, func(sim.Time) {})
	eng.Run()
	got := d.EnergyJ()
	want := d.cfg.ActivePower * 10
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("always-active 10s idle energy = %g, want %g (active power)", got, want)
	}
	// Mid-run toggle accrues the earlier interval at the earlier rate.
	eng2 := sim.New()
	d2, err := New(0, Ultrastar36Z15(), eng2)
	if err != nil {
		t.Fatal(err)
	}
	eng2.After(5*sim.Second, func(sim.Time) { d2.SetAlwaysActive(true) })
	eng2.After(10*sim.Second, func(sim.Time) {})
	eng2.Run()
	want2 := d2.cfg.IdlePower*5 + d2.cfg.ActivePower*5
	if got2 := d2.EnergyJ(); math.Abs(got2-want2) > 1e-6 {
		t.Fatalf("toggled energy = %g, want %g", got2, want2)
	}
}

func TestForceStateRules(t *testing.T) {
	eng := sim.New()
	d, err := New(0, Ultrastar36Z15(), eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ForceState(Active); !errors.Is(err, ErrBadState) {
		t.Errorf("ForceState(Active) err = %v", err)
	}
	if err := d.ForceState(Standby); err != nil {
		t.Fatalf("ForceState(Standby): %v", err)
	}
	if d.State() != Standby {
		t.Fatalf("state = %v", d.State())
	}
	if d.SpinCycles() != 0 || d.EnergyJ() != 0 {
		t.Fatal("ForceState must be free")
	}
	// After any activity, ForceState is rejected.
	if err := d.Submit(&IO{LBA: 0, Sectors: 8}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := d.ForceState(Standby); err == nil {
		t.Fatal("ForceState accepted after activity")
	}
}

func TestFailedDiskDrawsNothingMore(t *testing.T) {
	eng := sim.New()
	d, err := New(0, Ultrastar36Z15(), eng)
	if err != nil {
		t.Fatal(err)
	}
	eng.After(2*sim.Second, func(sim.Time) { d.Fail() })
	eng.After(12*sim.Second, func(sim.Time) {})
	eng.Run()
	if !d.Failed() {
		t.Fatal("Failed not set")
	}
	got := d.EnergyJ()
	want := d.cfg.IdlePower*2 + d.cfg.StandbyPower*10
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("energy = %g, want %g (dead drive at standby draw)", got, want)
	}
	// Double-fail is a no-op; replace needs a failure.
	d.Fail()
	if err := d.Replace(); err != nil {
		t.Fatal(err)
	}
	if err := d.Replace(); err == nil {
		t.Fatal("Replace on healthy drive accepted")
	}
}

func TestSequentialPreferenceReordersQueue(t *testing.T) {
	d, eng := newTestDisk(t)
	var order []string
	mk := func(name string, lba int64) *IO {
		return &IO{LBA: lba, Sectors: 8, Write: true,
			OnDone: func(sim.Time) { order = append(order, name) }}
	}
	// First IO establishes head position at LBA 8. Then queue a far IO
	// followed by the sequential continuation: the continuation must be
	// serviced first.
	if err := d.Submit(mk("head", 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(mk("far", 4_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(mk("seq", 8)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(order) != 3 || order[1] != "seq" || order[2] != "far" {
		t.Fatalf("service order = %v, want [head seq far]", order)
	}
}

func TestHeadOfLineAgeBoundsReordering(t *testing.T) {
	d, eng := newTestDisk(t)
	var order []string
	mk := func(name string, lba int64) *IO {
		return &IO{LBA: lba, Sectors: 8, Write: true,
			OnDone: func(sim.Time) { order = append(order, name) }}
	}
	// Keep a sequential stream flowing; inject one far IO and verify it
	// is not starved beyond the head-of-line bound.
	if err := d.Submit(mk("w0", 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(mk("far", 8_000_000)); err != nil {
		t.Fatal(err)
	}
	next := int64(8)
	for i := 0; i < 200; i++ {
		name := "seq"
		if err := d.Submit(mk(name, next)); err != nil {
			t.Fatal(err)
		}
		next += 8
	}
	eng.Run()
	// "far" must appear before the end: the 50th+ sequential IO would
	// exceed the age bound.
	pos := -1
	for i, n := range order {
		if n == "far" {
			pos = i
		}
	}
	if pos < 0 || pos == len(order)-1 {
		t.Fatalf("far IO starved to position %d of %d", pos, len(order))
	}
}

// TestLegalTransitionMatchesGraph holds the table LegalTransition reads to
// powerGraph, its single declaration, over every pair of states and the
// out-of-range values either side of them.
func TestLegalTransitionMatchesGraph(t *testing.T) {
	for from := PowerState(-1); from <= PowerState(numPowerStates); from++ {
		for to := PowerState(-1); to <= PowerState(numPowerStates); to++ {
			want := from == to
			for _, next := range powerGraph[from] {
				want = want || next == to
			}
			if got := LegalTransition(from, to); got != want {
				t.Errorf("LegalTransition(%v, %v) = %v, want %v", from, to, got, want)
			}
		}
	}
}

// TestTotalsMatchesStats checks that Totals reports what Stats does, after
// a spin cycle and some I/O, without allocating.
func TestTotalsMatchesStats(t *testing.T) {
	d, eng := newTestDisk(t)
	if err := d.Submit(&IO{LBA: 0, Sectors: 8}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := d.SpinDown(); err != nil {
		t.Fatal(err)
	}
	eng.After(10*sim.Second, func(sim.Time) {})
	eng.Run()
	if err := d.Submit(&IO{LBA: 4096, Sectors: 8}); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	got := d.Totals()
	st := d.Stats()
	var sum sim.Time
	for _, dur := range st.StateDur {
		sum += dur
	}
	want := Totals{StateTime: sum, EnergyJ: st.EnergyJ, SpinUps: st.SpinUps,
		SpinDowns: st.SpinDowns, IOsCompleted: st.IOsCompleted}
	if got != want {
		t.Fatalf("Totals = %+v, Stats gives %+v", got, want)
	}
	if got.StateTime != eng.Now()-d.Born() || got.SpinUps != 1 || got.IOsCompleted != 2 {
		t.Fatalf("Totals = %+v at %v", got, eng.Now())
	}
	if n := testing.AllocsPerRun(100, func() { d.Totals() }); n != 0 {
		t.Fatalf("Totals allocates %v times per call", n)
	}
}

// TestFifoSteadyCycleZeroAllocs keeps a queue non-empty through a steady
// push/pop cycle: once its array has grown to the queue's depth, pushes
// reuse the slack that pops left in front of the head.
func TestFifoSteadyCycleZeroAllocs(t *testing.T) {
	var q fifo
	ios := make([]IO, 16)
	for i := range 8 {
		q.push(&ios[i])
	}
	next := 8
	cycle := func() {
		q.push(&ios[next%len(ios)])
		next++
		if q.pop() == nil {
			t.Fatal("queue emptied")
		}
	}
	// One run of many cycles, so that even one growth in thousands of
	// cycles counts (AllocsPerRun truncates its per-run average).
	cycles := func() {
		for range 4096 {
			cycle()
		}
	}
	if n := testing.AllocsPerRun(1, cycles); n != 0 {
		t.Fatalf("4096 steady push/pop cycles allocated %v times, want 0", n)
	}
	if q.len() != 8 {
		t.Fatalf("queue holds %d entries, want 8", q.len())
	}
}
