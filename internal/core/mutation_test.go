package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/baseline"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/invariant"
	"github.com/rolo-storage/rolo/internal/logspace"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

// These are RoloSan's mutation tests: each test seeds one deliberate
// corruption of the bookkeeping — the kind of bug the sanitizer exists to
// catch — into every logging scheme it applies to, and asserts that it is
// detected with the right invariant family in the diagnostic. The
// clean-run tests at the bottom are the flip side: legitimate fault
// injection (disk failures, rebuilds, mid-destage traffic) must NOT trip
// the sanitizer.

// attachSanitizer wires a sanitizer to a controller the same way rolo.Run
// does for Config.Check.
func attachSanitizer(scheme string, eng *sim.Engine, a *array.Array, src invariant.Source, at invariant.Attachable) *invariant.Sanitizer {
	san := invariant.New(scheme, eng)
	san.SetSweepEvery(64)
	san.SetSource(src)
	at.SetSanitizer(san.Audit())
	san.WatchDisks(a.AllDisks(), false)
	san.Install()
	return san
}

// sanitized is one logging scheme's controller over a fresh 4-pair test
// array, with a sanitizer attached.
type sanitized struct {
	ctrl array.Controller
	*array.Logged
	arr *array.Array
	san *invariant.Sanitizer
}

func newSanitized(t *testing.T, scheme string) sanitized {
	t.Helper()
	eng := sim.New()
	extras := 0
	if scheme == "GRAID" {
		extras = 1 // the dedicated log disk
	}
	geom := raid.Geometry{Pairs: 4, StripeUnitBytes: 64 << 10, DataBytesPerDisk: 256 << 20}
	a, err := array.New(eng, geom, disk.Ultrastar36Z15().WithCapacity(320<<20), extras)
	if err != nil {
		t.Fatal(err)
	}
	c := sanitized{arr: a}
	switch scheme {
	case "RoLo-P":
		r, err := New(a, FlavorP, scaledConfig())
		if err != nil {
			t.Fatal(err)
		}
		c.ctrl, c.Logged = r, r.Logged
	case "RoLo-E":
		e, err := NewE(a, DefaultEConfig())
		if err != nil {
			t.Fatal(err)
		}
		c.ctrl, c.Logged = e, e.Logged
	case "GRAID":
		g, err := baseline.NewGRAID(a, baseline.GRAIDConfig{LogCapacityBytes: 16 << 20, DestageThreshold: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		c.ctrl, c.Logged = g, g.Logged
	default:
		t.Fatalf("no mutation harness for scheme %q", scheme)
	}
	c.san = attachSanitizer(scheme, eng, a, c.Logged, c.Logged)
	return c
}

// mutation is one scheme's row of a mutation test: corrupt seeds the
// corruption, and check and frag name the violation the sanitizer must
// report. An empty check marks a legitimate state the sanitizer must
// accept.
type mutation struct {
	scheme      string
	corrupt     func(t *testing.T, c sanitized)
	check, frag string
}

func runMutations(t *testing.T, rows []mutation) {
	for _, m := range rows {
		name := m.scheme
		if m.check == "" {
			name += "_clean"
		}
		t.Run(name, func(t *testing.T) {
			c := newSanitized(t, m.scheme)
			m.corrupt(t, c)
			c.san.Final(c.arr.Eng.Now())
			if m.check == "" {
				if err := c.san.Err(); err != nil {
					t.Fatalf("sanitizer tripped on a legitimate state: %v", err)
				}
				return
			}
			wantViolation(t, c.san, m.check, m.frag)
		})
	}
}

// wantViolation asserts that the sanitizer tripped, with the expected
// invariant family and a diagnostic mentioning frag.
func wantViolation(t *testing.T, san *invariant.Sanitizer, check, frag string) {
	t.Helper()
	if san.Err() == nil {
		t.Fatalf("corruption went undetected (want %s violation)", check)
	}
	v := san.Violations()[0]
	if v.Check != check {
		t.Fatalf("violation family = %q, want %q (%v)", v.Check, check, v)
	}
	if !strings.Contains(v.Error(), frag) {
		t.Fatalf("diagnostic %q does not mention %q", v.Error(), frag)
	}
}

// TestMutationUnauditedAlloc allocates log space behind the audited
// helpers' back; the conservation sweep must notice ledger divergence.
func TestMutationUnauditedAlloc(t *testing.T) {
	unaudited := func(t *testing.T, c sanitized) {
		if _, ok := c.SanitizerState().Spaces[0].Alloc(8192, 3); !ok { // bypasses Logged.Alloc
			t.Fatal("direct alloc failed")
		}
	}
	runMutations(t, []mutation{
		{"RoLo-P", unaudited, "conservation", "bypassed the audited helpers"},
		{"GRAID", unaudited, "conservation", "bypassed the audited helpers"},
	})
}

// TestMutationAfterCleanSweep corrupts the log bookkeeping only after a
// clean sweep has verified it. The sweep skips a space whose generation
// and ledger version are where they were at its last clean sweep, so each
// corruption must move one of them: a space mutated behind the audited
// helpers advances its generation, and an audit notification that the
// space did not see (an allocation, release or reset) advances the ledger
// version. The next sweep must check the space again and report the
// divergence.
func TestMutationAfterCleanSweep(t *testing.T) {
	space := func(c sanitized) *logspace.Space { return c.SanitizerState().Spaces[0] }
	for _, k := range []struct {
		name        string
		corrupt     func(c sanitized)
		check, frag string
	}{
		{"unaudited_Alloc", func(c sanitized) { space(c).Alloc(4096, 3) }, "conservation", "bypassed the audited helpers"},
		{"unaudited_ReleaseTag", func(c sanitized) { space(c).ReleaseTag(1) }, "conservation", "0 allocated bytes"},
		{"unaudited_Reset", func(c sanitized) { space(c).Reset() }, "conservation", "0 allocated bytes"},
		{"ledger_only_Alloc", func(c sanitized) { c.san.Audit().Alloc(space(c), 1, 4096) }, "conservation", "12288 audited bytes"},
		{"ledger_only_Release", func(c sanitized) { c.san.Audit().Release(space(c), 1, 8192, 0) }, "conservation", "bypassed the audited helpers"},
		{"ledger_only_Reset", func(c sanitized) { c.san.Audit().Reset(space(c)) }, "conservation", "bypassed the audited helpers"},
	} {
		t.Run(k.name, func(t *testing.T) {
			corrupt := func(t *testing.T, c sanitized) {
				for tag := 0; tag < 2; tag++ {
					if _, ok := c.Alloc(0, 8192, tag); !ok {
						t.Fatal("log alloc failed")
					}
				}
				c.san.Final(c.arr.Eng.Now())
				if err := c.san.Err(); err != nil {
					t.Fatalf("sweep before the corruption: %v", err)
				}
				k.corrupt(c)
			}
			runMutations(t, []mutation{
				{"RoLo-P", corrupt, k.check, k.frag},
				{"RoLo-E", corrupt, k.check, k.frag},
				{"GRAID", corrupt, k.check, k.frag},
			})
		})
	}
}

// TestMutationEarlyRelease reclaims a pair's log extents while the pair
// still has dirty bytes — the reclamation-safety rule (paper §III-E: only
// a drained destage may release).
func TestMutationEarlyRelease(t *testing.T) {
	runMutations(t, []mutation{{"RoLo-P", func(t *testing.T, c sanitized) {
		if _, ok := c.Alloc(0, 8192, 2); !ok {
			t.Fatal("log alloc failed")
		}
		c.MarkDirty(2, 0, 8192)
		c.ReleaseTag(2) // destage never drained: live log copies reclaimed
	}, "recoverability", "dirty bytes outstanding"}})
}

// TestMutationMidDestageReset resets a RoLo-E log that still covers dirty
// spans — under RoLo-E the log holds the only current copy, so this is
// data loss (the exact bug class the centralized-destage write path must
// avoid).
func TestMutationMidDestageReset(t *testing.T) {
	runMutations(t, []mutation{{"RoLo-E", func(_ *testing.T, c sanitized) {
		c.MarkDirty(0, 0, 4096)
		c.ResetSpace(0)
	}, "recoverability", "only copy was logged"}})
}

// TestMutationPhantomDirty marks a span dirty with no log backing. Under
// RoLo-P the pair's primary then fails, leaving the span no valid source;
// under GRAID the generation log no longer covers the aggregate dirt. Once
// GRAID's log disk has failed, that exposure is known and the aggregate
// check is suspended.
func TestMutationPhantomDirty(t *testing.T) {
	phantom := func(_ *testing.T, c sanitized) { c.MarkDirty(1, 0, 1<<20) }
	runMutations(t, []mutation{
		{"RoLo-P", func(t *testing.T, c sanitized) {
			phantom(t, c)
			c.arr.Primaries[1].Fail()
		}, "recoverability", "failed primary"},
		{"GRAID", phantom, "recoverability", "log device"},
		{"GRAID", func(t *testing.T, c sanitized) {
			c.ctrl.(*baseline.GRAID).FailLogDisk()
			phantom(t, c)
		}, "", ""},
	})
}

// TestMutationForbiddenSpinDown watches disks under the RAID10 policy
// (power-unmanaged: no spin-downs, ever) and spins one down anyway.
func TestMutationForbiddenSpinDown(t *testing.T) {
	a, eng := testArray(t, 4)
	san := invariant.New("RAID10", eng)
	san.WatchDisks(a.AllDisks(), true)
	san.Install()

	if err := a.Primaries[2].SpinDown(); err != nil {
		t.Fatal(err)
	}
	wantViolation(t, san, "state-machine", "no spin-downs")
}

// TestSanitizerCleanUnderFailureInjection re-runs the failure-injection
// scenario — random traffic interleaved with disk failures and rebuilds,
// destages and rotations mid-flight — with the sanitizer attached. All of
// that is legitimate; any violation is a sanitizer false positive (or a
// real controller bug).
func TestSanitizerCleanUnderFailureInjection(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			a, eng := testArray(t, 4)
			r, err := New(a, FlavorP, scaledConfig())
			if err != nil {
				t.Fatal(err)
			}
			san := attachSanitizer("RoLo-P", eng, a, r, r)

			rng := rand.New(rand.NewSource(seed))
			volume := a.Geom.VolumeBytes()
			at := sim.Time(0)
			for i := 0; i < 1200; i++ {
				at += sim.Time(rng.Intn(int(25 * sim.Millisecond)))
				rec := trace.Record{
					At:     at,
					Op:     trace.Write,
					Offset: rng.Int63n(volume/8192-16) * 8192,
					Size:   int64(rng.Intn(16)+1) * 8192,
				}
				if err := eng.Schedule(rec.At, func(sim.Time) {
					if err := r.Submit(rec); err != nil {
						t.Errorf("submit: %v", err)
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			failed := map[int]bool{}
			for i := 0; i < 3; i++ {
				failAt := sim.Time(rng.Int63n(int64(at)))
				if err := eng.Schedule(failAt, func(now sim.Time) {
					p := rng.Intn(a.Geom.Pairs)
					if failed[p] {
						return
					}
					mirror := rng.Intn(2) == 0
					var ferr error
					if mirror {
						_, ferr = r.FailMirror(p)
					} else {
						_, ferr = r.FailPrimary(p)
					}
					if ferr == nil {
						failed[p] = true
						eng.After(15*sim.Second, func(sim.Time) {
							if err := r.Rebuild(p, mirror, nil); err == nil {
								failed[p] = false
							}
						})
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			eng.Run()
			san.Final(eng.Now())
			if err := san.Err(); err != nil {
				t.Fatalf("sanitizer tripped on a legitimate faulty run: %v", err)
			}
			if san.Events() == 0 || san.Sweeps() == 0 {
				t.Fatalf("sanitizer saw %d events, %d sweeps: not wired", san.Events(), san.Sweeps())
			}
		})
	}
}

// TestSanitizerCleanRoLoEDestage drives RoLo-E hard enough to force
// centralized destages with writes continuing to arrive mid-destage, all
// under the sanitizer.
func TestSanitizerCleanRoLoEDestage(t *testing.T) {
	a, eng := testArray(t, 4)
	e, err := NewE(a, DefaultEConfig())
	if err != nil {
		t.Fatal(err)
	}
	san := attachSanitizer("RoLo-E", eng, a, e, e)

	recs := writeRecs(3200, 64<<10, 20*sim.Millisecond)
	replay(t, eng, a, e, recs)
	san.Final(eng.Now())
	if err := san.Err(); err != nil {
		t.Fatalf("sanitizer tripped on a clean destaging run: %v", err)
	}
	if e.Destages() == 0 {
		t.Fatal("workload never triggered a centralized destage; the test proves nothing")
	}
	if san.Events() == 0 || san.Sweeps() == 0 {
		t.Fatalf("sanitizer saw %d events, %d sweeps: not wired", san.Events(), san.Sweeps())
	}
}
