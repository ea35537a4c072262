package invariant

import (
	"strings"
	"testing"

	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/logspace"
	"github.com/rolo-storage/rolo/internal/sim"
)

// fakeSource hands the sanitizer a fixed set of log spaces and no dirt.
type fakeSource struct{ spaces []*logspace.Space }

func (f *fakeSource) SanitizerState() State {
	return State{Scheme: "fake", Spaces: f.spaces}
}

func (f *fakeSource) SanitizerCounters() Counters { return Counters{} }

// sweepFixture is a sanitizer over three spaces that each hold one audited
// 4 KiB allocation under tag 0 and have passed one clean sweep.
type sweepFixture struct {
	eng *sim.Engine
	san *Sanitizer
	src *fakeSource
}

func newSweepFixture(t *testing.T) sweepFixture {
	t.Helper()
	f := sweepFixture{eng: sim.New(), src: &fakeSource{}}
	f.san = New("fake", f.eng)
	f.san.SetSource(f.src)
	for i := 0; i < 3; i++ {
		sp, err := logspace.New(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		f.src.spaces = append(f.src.spaces, sp)
		f.alloc(t, i, 0)
	}
	if err := f.sweep(); err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	return f
}

// alloc makes an audited 4 KiB allocation under tag on space i.
func (f sweepFixture) alloc(t *testing.T, i, tag int) {
	t.Helper()
	sp := f.src.spaces[i]
	if _, ok := sp.Alloc(4096, tag); !ok {
		t.Fatal("alloc failed")
	}
	f.san.Audit().Alloc(sp, tag, 4096)
}

func (f sweepFixture) sweep() error {
	f.san.Final(f.eng.Now())
	return f.san.Err()
}

// TestSweepSkipsUnchangedSpaces plants a divergence in space 0's ledger
// without advancing its version, the one change the sweep memo cannot
// see. A sweep that skips space 0 stays clean; one that checks it again
// reports the divergence. So the verdict shows, change by change, which
// spaces a sweep checked: only the ones whose generation or ledger
// version moved since their last clean sweep.
func TestSweepSkipsUnchangedSpaces(t *testing.T) {
	for _, c := range []struct {
		name    string
		change  func(t *testing.T, f sweepFixture)
		checked bool
	}{
		{"nothing", func(*testing.T, sweepFixture) {}, false},
		{"another space", func(t *testing.T, f sweepFixture) { f.alloc(t, 1, 1) }, false},
		{"generation only", func(t *testing.T, f sweepFixture) {
			f.src.spaces[0].Alloc(4096, 1) // behind the audit's back
		}, true},
		{"ledger only", func(t *testing.T, f sweepFixture) {
			f.san.Audit().Alloc(f.src.spaces[0], 1, 4096) // no allocation behind it
		}, true},
		{"both", func(t *testing.T, f sweepFixture) { f.alloc(t, 0, 1) }, true},
	} {
		t.Run(strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
			f := newSweepFixture(t)
			f.san.audit.spaces[f.src.spaces[0]].tags[0]++
			c.change(t, f)
			err := f.sweep()
			if !c.checked {
				if err != nil {
					t.Fatalf("sweep checked an unchanged space again: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("sweep skipped a changed space")
			}
			if v := f.san.Violations()[0]; v.Object != "logspace tag 0" || v.Expected != "4097 audited bytes" {
				t.Fatalf("first violation %v, want the planted tag-0 divergence", v)
			}
		})
	}
}

// TestSweepPeriod pins when periodic sweeps fire: at events n, 2n, 3n, …
// counted from Install, and never with a period of 0.
func TestSweepPeriod(t *testing.T) {
	for _, c := range []struct {
		every, events, sweeps uint64
	}{{64, 1000, 15}, {64, 1024, 16}, {1, 5, 5}, {0, 1000, 0}, {DefaultSweepEvery, 9000, 2}} {
		eng := sim.New()
		san := New("fake", eng)
		if c.every != DefaultSweepEvery {
			san.SetSweepEvery(c.every)
		}
		san.Install()
		for i := uint64(0); i < c.events; i++ {
			eng.After(sim.Time(i), func(sim.Time) {})
		}
		eng.Run()
		if san.Events() != c.events || san.Sweeps() != c.sweeps {
			t.Errorf("every %d: %d events, %d sweeps; want %d, %d",
				c.every, san.Events(), san.Sweeps(), c.events, c.sweeps)
		}
	}
}

// TestDiskSweepAllocationFree pins that a clean disk sweep builds no
// per-disk map or name: it reads Disk.Totals and formats only violations.
func TestDiskSweepAllocationFree(t *testing.T) {
	eng := sim.New()
	var disks []*disk.Disk
	for i := 0; i < 4; i++ {
		d, err := disk.New(i, disk.Ultrastar36Z15(), eng)
		if err != nil {
			t.Fatal(err)
		}
		disks = append(disks, d)
	}
	c := newDiskChecker(New("fake", eng), disks, false)
	eng.After(sim.Second, func(sim.Time) {})
	eng.Run()
	if n := testing.AllocsPerRun(100, func() {
		if vs := c.Sweep(eng.Now()); vs != nil {
			t.Fatalf("clean disks reported %v", vs)
		}
	}); n != 0 {
		t.Fatalf("a clean disk sweep allocates %v times", n)
	}
}
