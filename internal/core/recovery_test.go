package core

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/trace"
)

// failSetup drives some writes so the on-duty logger holds live extents
// for several pairs, then returns the controller mid-run.
func failSetup(t *testing.T) (*RoLo, *array.Array, *sim.Engine) {
	t.Helper()
	a, eng := testArray(t, 4)
	r, err := New(a, FlavorP, scaledConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := writeRecs(64, 64<<10, 20*sim.Millisecond)
	for i := range recs {
		rec := recs[i]
		if err := eng.Schedule(rec.At, func(sim.Time) {
			if err := r.Submit(rec); err != nil {
				t.Errorf("submit: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(2 * sim.Second)
	return r, a, eng
}

func TestFailOnDutyMirrorRotatesImmediately(t *testing.T) {
	r, a, eng := failSetup(t)
	var journal telemetry.CountingSink
	r.SetTelemetry(telemetry.NewRecorder(&journal))
	rotationsBefore := r.Rotations()
	prevDuty := r.OnDuty()
	plan, err := r.FailMirror(prevDuty)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NewOnDuty < 0 || plan.NewOnDuty == prevDuty {
		t.Fatalf("no successor logger: %+v", plan)
	}
	if r.OnDuty() != plan.NewOnDuty {
		t.Fatalf("on-duty = %d, plan said %d", r.OnDuty(), plan.NewOnDuty)
	}
	// Logging continues: the next write must succeed without error.
	done := false
	eng.After(10*sim.Millisecond, func(sim.Time) {
		err := r.Submit(trace.Record{
			At: eng.Now(), Op: trace.Write, Offset: 0, Size: 64 << 10,
		})
		if err != nil {
			t.Errorf("write after on-duty failure: %v", err)
		}
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("post-failure write never ran")
	}
	if a.Mirrors[prevDuty].State() != disk.Standby || !a.Mirrors[prevDuty].Failed() {
		t.Fatalf("failed mirror state = %v failed=%v", a.Mirrors[prevDuty].State(), a.Mirrors[prevDuty].Failed())
	}
	// The emergency rotation is journaled like any other, so the journal
	// agrees with the report's rotation count.
	rotated := int64(r.Rotations() - rotationsBefore)
	if got := journal.Count(telemetry.KindRotation); got != rotated || rotated == 0 {
		t.Fatalf("journal holds %d rotation events, controller counted %d", got, rotated)
	}
}

// TestFailPreWokenLoggerKeepsRotating fails the mirror that is being
// woken ahead of rotation. The controller must choose another successor,
// so rotations go on and the log keeps absorbing writes.
func TestFailPreWokenLoggerKeepsRotating(t *testing.T) {
	a, eng := testArray(t, 4)
	r, err := New(a, FlavorP, scaledConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := writeRecs(4000, 64<<10, 20*sim.Millisecond)
	failed := -1
	var rotations int
	var direct int64
	for i := range recs {
		rec := recs[i]
		if err := eng.Schedule(rec.At, func(sim.Time) {
			if err := r.Submit(rec); err != nil {
				t.Errorf("submit: %v", err)
			}
			if failed < 0 && r.spinningUp >= 0 {
				failed = r.spinningUp
				if _, err := r.FailMirror(failed); err != nil {
					t.Errorf("fail pre-woken mirror %d: %v", failed, err)
				}
				rotations, direct = r.Rotations(), r.DirectWrites()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if failed < 0 {
		t.Fatal("no logger was woken ahead of rotation")
	}
	if got := r.Rotations() - rotations; got == 0 {
		t.Fatalf("no rotation after pre-woken mirror %d failed", failed)
	}
	if got := r.DirectWrites() - direct; got > int64(len(recs)/5) {
		t.Fatalf("%d of %d writes bypassed the log after mirror %d failed", got, len(recs), failed)
	}
	if r.OnDuty() == failed {
		t.Fatalf("failed mirror %d is on duty", failed)
	}
}

// TestFailOnDutyHandsDutyToPreWokenLogger fails the on-duty mirror while
// the only viable successor is the logger being woken ahead of rotation
// (the other two are nearly full). Duty must pass to that logger at once;
// deactivating logging instead would never end, because reactivation and
// rotation both skip the logger being woken.
func TestFailOnDutyHandsDutyToPreWokenLogger(t *testing.T) {
	a, eng := testArray(t, 4)
	r, err := New(a, FlavorP, scaledConfig())
	if err != nil {
		t.Fatal(err)
	}
	const tag = 1
	for i := 2; i < a.Geom.Pairs; i++ {
		c := r.Capacity(i)
		if _, ok := r.Alloc(i, c-c/40, tag); !ok {
			t.Fatalf("fill logger %d failed", i)
		}
	}
	recs := writeRecs(2000, 64<<10, 20*sim.Millisecond)
	var plan RecoveryPlan
	failed := -1
	var rotations int
	var direct int64
	for i := range recs {
		rec := recs[i]
		if err := eng.Schedule(rec.At, func(sim.Time) {
			if err := r.Submit(rec); err != nil {
				t.Errorf("submit: %v", err)
			}
			if failed < 0 && r.spinningUp >= 0 {
				failed = r.OnDuty()
				if plan, err = r.FailMirror(failed); err != nil {
					t.Errorf("fail on-duty mirror %d: %v", failed, err)
				}
				rotations, direct = r.Rotations(), r.DirectWrites()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if failed != 0 {
		t.Fatalf("failed mirror %d, want on-duty mirror 0 at logger 1's pre-wake", failed)
	}
	if plan.NewOnDuty != 1 {
		t.Fatalf("NewOnDuty = %d, want the pre-woken logger 1", plan.NewOnDuty)
	}
	if got := r.Rotations() - rotations; got == 0 {
		t.Fatal("no rotation after the on-duty mirror failed")
	}
	if got := r.DirectWrites() - direct; got > int64(len(recs)/5) {
		t.Fatalf("%d of %d writes bypassed the log after mirror 0 failed", got, len(recs))
	}
}

// TestFailOnDutyWithNoSuccessorDeactivates fails the on-duty mirror while
// every other logger is nearly full: logging is deactivated and writes
// take the direct path until reclamation frees a logger, when the next
// write reactivates logging on it (Section III-E).
func TestFailOnDutyWithNoSuccessorDeactivates(t *testing.T) {
	a, eng := testArray(t, 4)
	r, err := New(a, FlavorP, scaledConfig())
	if err != nil {
		t.Fatal(err)
	}
	const tag = 1
	for i := 1; i < a.Geom.Pairs; i++ {
		c := r.Capacity(i)
		if _, ok := r.Alloc(i, c-c/40, tag); !ok {
			t.Fatalf("fill logger %d failed", i)
		}
	}
	plan, err := r.FailMirror(r.OnDuty())
	if err != nil {
		t.Fatal(err)
	}
	if plan.NewOnDuty != -1 || r.OnDuty() != -1 {
		t.Fatalf("NewOnDuty = %d, OnDuty = %d; want logging deactivated", plan.NewOnDuty, r.OnDuty())
	}
	write := func() {
		if err := r.Submit(trace.Record{At: eng.Now(), Op: trace.Write, Offset: 0, Size: 64 << 10}); err != nil {
			t.Fatalf("write: %v", err)
		}
		eng.RunUntil(eng.Now() + sim.Second)
	}
	write()
	if r.DirectWrites() != 1 || r.OnDuty() != -1 || r.Rotations() != 0 {
		t.Fatalf("after deactivated write: direct %d, on duty %d, rotations %d; want 1, -1, 0",
			r.DirectWrites(), r.OnDuty(), r.Rotations())
	}
	if got := r.Responses().Count(); got != 1 {
		t.Fatalf("%d writes completed, want 1", got)
	}
	r.ReleaseTag(tag)
	write()
	if r.DirectWrites() != 2 || r.OnDuty() != 1 || r.Rotations() != 1 {
		t.Fatalf("after reclamation: direct %d, on duty %d, rotations %d; want 2, 1, 1",
			r.DirectWrites(), r.OnDuty(), r.Rotations())
	}
	write()
	if r.DirectWrites() != 2 || r.TagBytes(1, 0) == 0 {
		t.Fatalf("write after reactivation not logged: direct %d, logger 1 holds %d bytes for pair 0",
			r.DirectWrites(), r.TagBytes(1, 0))
	}
	eng.Run()
}

func TestFailPrimaryWakesOnlyEssentialDisks(t *testing.T) {
	r, a, eng := failSetup(t)
	// Pick a pair whose mirror sleeps and which has logged extents.
	victim := -1
	for p := 0; p < a.Geom.Pairs; p++ {
		if p != r.OnDuty() && a.Mirrors[p].State() == disk.Standby && r.TagBytes(r.OnDuty(), p) > 0 {
			victim = p
			break
		}
	}
	if victim == -1 {
		t.Skip("no sleeping pair with logged extents in this setup")
	}
	plan, err := r.FailPrimary(victim)
	if err != nil {
		t.Fatal(err)
	}
	// The victim's mirror must be waking.
	if st := a.Mirrors[victim].State(); st != disk.SpinningUp {
		t.Fatalf("victim mirror state = %v, want SPINUP", st)
	}
	// Log sources must include the on-duty logger (it holds extents for
	// the victim) — already awake, so not in SpunUp.
	foundSource := false
	for _, i := range plan.LogSourceLoggers {
		if i == r.OnDuty() {
			foundSource = true
		}
	}
	if !foundSource {
		t.Fatalf("on-duty logger missing from log sources: %+v", plan)
	}
	// Mirrors with no involvement stay asleep.
	for p := 0; p < a.Geom.Pairs; p++ {
		if p == victim || p == r.OnDuty() {
			continue
		}
		if r.TagBytes(p, victim) > 0 {
			continue
		}
		involved := false
		for _, s := range plan.SpunUp {
			if s == p {
				involved = true
			}
		}
		if !involved && a.Mirrors[p].State() == disk.SpinningUp {
			t.Fatalf("uninvolved mirror %d was woken", p)
		}
	}
	if plan.RebuildBytes < a.Geom.DataBytesPerDisk {
		t.Fatalf("rebuild bytes %d below data region %d", plan.RebuildBytes, a.Geom.DataBytesPerDisk)
	}
	eng.Run()
}

func TestDegradedReadsAndWritesAfterPrimaryFailure(t *testing.T) {
	r, a, eng := failSetup(t)
	victim := (r.OnDuty() + 1) % a.Geom.Pairs
	if _, err := r.FailPrimary(victim); err != nil {
		t.Fatal(err)
	}
	// Reads and writes addressed to the failed pair must still complete,
	// served by the surviving mirror.
	su := a.Geom.StripeUnitBytes
	off := int64(victim) * su // stripe `victim` lands on that pair
	completed := 0
	for i, op := range []trace.Op{trace.Read, trace.Write} {
		op := op
		eng.After(sim.Time(i+1)*sim.Second, func(now sim.Time) {
			if err := r.Submit(trace.Record{At: now, Op: op, Offset: off, Size: su}); err != nil {
				t.Errorf("degraded %v: %v", op, err)
				return
			}
			completed++
		})
	}
	eng.Run()
	if completed != 2 {
		t.Fatalf("only %d degraded ops issued", completed)
	}
	if got := a.Mirrors[victim].Stats().IOsCompleted; got == 0 {
		t.Fatal("surviving mirror serviced nothing")
	}
}

func TestRebuildMirror(t *testing.T) {
	r, a, eng := failSetup(t)
	victim := (r.OnDuty() + 1) % a.Geom.Pairs
	if _, err := r.FailMirror(victim); err != nil {
		t.Fatal(err)
	}
	var rebuiltAt sim.Time
	if err := r.Rebuild(victim, true, func(now sim.Time) { rebuiltAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if rebuiltAt == 0 {
		t.Fatal("rebuild never completed")
	}
	if a.Mirrors[victim].Failed() {
		t.Fatal("mirror still marked failed after rebuild")
	}
	if r.SanitizerState().DirtyBytes[victim] != 0 {
		t.Fatal("rebuilt pair still dirty")
	}
	// The rebuilt mirror received at least a full data region.
	if got := a.Mirrors[victim].Stats().BytesWritten; got < a.Geom.DataBytesPerDisk {
		t.Fatalf("rebuild wrote %d of %d bytes", got, a.Geom.DataBytesPerDisk)
	}
}

func TestRebuildRefusesDoubleFailure(t *testing.T) {
	r, a, _ := failSetup(t)
	victim := (r.OnDuty() + 1) % a.Geom.Pairs
	if _, err := r.FailMirror(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FailPrimary(victim); err != nil {
		t.Fatal(err)
	}
	if err := r.Rebuild(victim, true, nil); err == nil {
		t.Fatal("rebuild with both disks failed must error (data loss)")
	}
	_ = a
}

func TestFailValidation(t *testing.T) {
	r, _, _ := failSetup(t)
	if _, err := r.FailMirror(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := r.FailPrimary(99); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := r.FailMirror(1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FailMirror(1); err == nil {
		t.Error("double failure accepted")
	}
	if err := r.Rebuild(2, true, nil); err == nil {
		t.Error("rebuild of healthy disk accepted")
	}
}

func TestDiskFailDropsQueueAndRejects(t *testing.T) {
	a, eng := testArray(t, 2)
	d := a.Mirrors[0]
	dropped := 0
	if err := d.Submit(a.DataIO(0, 1<<20, true, false)); err != nil {
		t.Fatal(err)
	}
	io2 := a.DataIO(1<<20, 1<<20, true, false)
	io2.OnDone = func(sim.Time) { dropped++ }
	if err := d.Submit(io2); err != nil {
		t.Fatal(err)
	}
	d.Fail()
	if dropped != 1 {
		t.Fatalf("queued IO callback fired %d times, want 1 (dropped)", dropped)
	}
	if err := d.Submit(a.DataIO(0, 4096, true, false)); err == nil {
		t.Fatal("failed disk accepted IO")
	}
	if err := d.SpinUp(); err == nil {
		t.Fatal("failed disk accepted SpinUp")
	}
	eng.Run()
	if d.State() != disk.Standby {
		t.Fatalf("failed disk state = %v", d.State())
	}
	if err := d.Replace(); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if d.State() != disk.Idle {
		t.Fatalf("replacement state = %v, want IDLE after spin-up", d.State())
	}
}
