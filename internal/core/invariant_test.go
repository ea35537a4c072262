package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

// checkRoLoInvariants asserts the structural invariants that must hold at
// any instant of a RoLo-P/R run, healthy or degraded:
//
//  1. every logspace allocator balances (free + used = capacity, no
//     overlapping extents);
//  2. the on-duty logger, if any, has not failed;
//  3. a clean pair (no dirty spans) holds no live log extents anywhere,
//     unless direct writes occurred (which clean dirt without touching
//     logs) or a logger failure discarded extents;
//  4. a live destage only runs for pairs with a healthy primary.
func checkRoLoInvariants(t *testing.T, r *RoLo, allowStaleTags bool) {
	t.Helper()
	st := r.SanitizerState()
	for i, sp := range st.Spaces {
		if err := sp.CheckInvariants(); err != nil {
			t.Fatalf("logger %d: %v", i, err)
		}
	}
	if d := r.onDuty; d >= 0 && r.arr.Mirrors[d].Failed() {
		t.Fatalf("failed mirror %d is on duty", d)
	}
	if !allowStaleTags {
		for p := 0; p < r.arr.Geom.Pairs; p++ {
			if st.DirtyBytes[p] != 0 {
				continue
			}
			for i := range st.Spaces {
				if got := r.TagBytes(i, p); got != 0 {
					t.Fatalf("pair %d clean but logger %d holds %d bytes", p, i, got)
				}
			}
		}
	}
	for p, live := range r.destageLive {
		if live && r.arr.Primaries[p].Failed() {
			t.Fatalf("destage live for pair %d with failed primary", p)
		}
	}
}

// TestRoLoRandomOpsInvariants drives RoLo with randomized traffic and
// periodically validates the invariants. This is the closest thing to a
// model checker the simulator has: rotations, destages, reclamation and
// the deactivation fallback all interleave.
func TestRoLoRandomOpsInvariants(t *testing.T) {
	for _, flavor := range []Flavor{FlavorP, FlavorR} {
		for seed := int64(1); seed <= 3; seed++ {
			flavor, seed := flavor, seed
			t.Run(fmt.Sprintf("%v/seed%d", flavor, seed), func(t *testing.T) {
				a, eng := testArray(t, 4)
				r, err := New(a, flavor, scaledConfig())
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				volume := a.Geom.VolumeBytes()
				at := sim.Time(0)
				for i := 0; i < 2000; i++ {
					at += sim.Time(rng.Intn(int(20 * sim.Millisecond)))
					rec := trace.Record{
						At:     at,
						Op:     trace.Write,
						Offset: (rng.Int63n(volume/8192-16) * 8192),
						Size:   int64(rng.Intn(16)+1) * 8192,
					}
					if rng.Intn(10) == 0 {
						rec.Op = trace.Read
					}
					if err := eng.Schedule(rec.At, func(sim.Time) {
						if err := r.Submit(rec); err != nil {
							t.Errorf("submit: %v", err)
						}
					}); err != nil {
						t.Fatal(err)
					}
				}
				// Validate at 64 checkpoints during the run.
				step := at / 64
				for c := sim.Time(step); c <= at; c += step {
					eng.RunUntil(c)
					checkRoLoInvariants(t, r, r.DirectWrites() > 0)
				}
				eng.Run()
				checkRoLoInvariants(t, r, r.DirectWrites() > 0)
				if err := r.CheckErr(); err != nil {
					t.Fatal(err)
				}
				if got := r.Responses().Count(); got != 2000 {
					t.Fatalf("responses = %d, want 2000", got)
				}
			})
		}
	}
}

// TestRoLoFailureInjectionInvariants interleaves traffic with random disk
// failures and rebuilds, validating the degraded-mode invariants and that
// no request is ever lost.
func TestRoLoFailureInjectionInvariants(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			eng := sim.New()
			geom := raid.Geometry{Pairs: 6, StripeUnitBytes: 64 << 10, DataBytesPerDisk: 128 << 20}
			a, err := array.New(eng, geom, disk.Ultrastar36Z15().WithCapacity(192<<20), 0)
			if err != nil {
				t.Fatal(err)
			}
			r, err := New(a, FlavorP, scaledConfig())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			volume := geom.VolumeBytes()
			const n = 1500
			at := sim.Time(0)
			for i := 0; i < n; i++ {
				at += sim.Time(rng.Intn(int(30 * sim.Millisecond)))
				rec := trace.Record{
					At:     at,
					Op:     trace.Write,
					Offset: rng.Int63n(volume/8192-16) * 8192,
					Size:   int64(rng.Intn(16)+1) * 8192,
				}
				if err := eng.Schedule(rec.At, func(sim.Time) {
					if err := r.Submit(rec); err != nil {
						t.Errorf("submit at %v: %v", rec.At, err)
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			// Inject failures and rebuilds at random instants, at most one
			// failed disk per pair so data survives.
			failedMirror := map[int]bool{}
			failedPrimary := map[int]bool{}
			for i := 0; i < 4; i++ {
				failAt := sim.Time(rng.Int63n(int64(at)))
				if err := eng.Schedule(failAt, func(now sim.Time) {
					p := rng.Intn(geom.Pairs)
					if failedMirror[p] || failedPrimary[p] {
						return
					}
					if rng.Intn(2) == 0 {
						if _, err := r.FailMirror(p); err == nil {
							failedMirror[p] = true
							eng.After(20*sim.Second, func(sim.Time) {
								if err := r.Rebuild(p, true, nil); err == nil {
									failedMirror[p] = false
								}
							})
						}
					} else {
						if _, err := r.FailPrimary(p); err == nil {
							failedPrimary[p] = true
							eng.After(20*sim.Second, func(sim.Time) {
								if err := r.Rebuild(p, false, nil); err == nil {
									failedPrimary[p] = false
								}
							})
						}
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			step := at / 32
			for c := step; c <= at; c += step {
				eng.RunUntil(c)
				// Failures legitimately strand log extents of clean pairs,
				// so the stale-tag invariant is waived.
				checkRoLoInvariants(t, r, true)
			}
			eng.Run()
			checkRoLoInvariants(t, r, true)
			if got := r.Responses().Count(); got != n {
				t.Fatalf("responses = %d, want %d: requests were lost", got, n)
			}
		})
	}
}
