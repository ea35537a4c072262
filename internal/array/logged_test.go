package array

import (
	"runtime"
	"strings"
	"testing"

	"github.com/rolo-storage/rolo/internal/intervals"
	"github.com/rolo-storage/rolo/internal/invariant"
	"github.com/rolo-storage/rolo/internal/sim"
)

// TestDestageHandsWorkArrayBack pins the destage set handback: each
// centralized destage restarts a pair's dirt in the array its previous
// work set drained. From the second destage on, marking as many spans as
// before therefore allocates nothing.
func TestDestageHandsWorkArrayBack(t *testing.T) {
	a, eng := testArray(t, 2, 0)
	l, err := NewLogged(a, LogLayout{Scheme: "test", Spaces: 1, SpaceBytes: 1 << 20, PrimaryBacked: true})
	if err != nil {
		t.Fatal(err)
	}
	const spans = 200
	mark := func() {
		for i := int64(0); i < spans; i++ {
			l.MarkDirty(1, 2*i*4096, (2*i+1)*4096)
		}
	}
	destage := func() {
		drained := false
		l.DestageEach(func(p int, work *intervals.Set) *Copier {
			return a.DataCopier(a.Primaries[p], a.Mirrors[p], work)
		}, func(sim.Time) { drained = true })
		eng.Run()
		if !drained || l.dirty[1].Total() != 0 {
			t.Fatalf("destage did not drain (dirty %d bytes)", l.dirty[1].Total())
		}
	}
	mallocs := func(fn func()) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}

	mark()
	destage() // the dirt restarts in an empty set: no drained array yet
	if n := mallocs(mark); n == 0 {
		t.Fatalf("marking %d spans into a fresh set allocated nothing; the test cannot see reuse", spans)
	}
	destage() // the dirt restarts in the array the first work set drained
	if n := mallocs(mark); n != 0 {
		t.Errorf("marking %d spans after the second destage: %d allocations, want 0", spans, n)
	}
	if got := l.dirty[1].Count(); got != spans {
		t.Fatalf("%d dirty spans, want %d", got, spans)
	}
}

// TestRunningTotalsCheckedAtSweep seeds the bug of a helper that mutates
// the log or the dirt, and notifies the audit, but skips its running-total
// update. The totals feed the sanitizer's per-event counters and the
// probes, so the next sweep must report the drift as an accounting
// violation.
func TestRunningTotalsCheckedAtSweep(t *testing.T) {
	for _, m := range []struct {
		name, object string
		skip         func(l *Logged)
	}{
		{"Alloc", "log occupancy total", func(l *Logged) {
			sp := l.spaces[0]
			if _, ok := sp.Alloc(4096, 0); ok {
				l.san.Alloc(sp, 0, 4096)
			}
		}},
		{"ResetSpace", "log occupancy total", func(l *Logged) {
			sp := l.spaces[0]
			sp.Reset()
			l.san.Reset(sp)
		}},
		{"CleanDirty", "dirty bytes total", func(l *Logged) { l.dirty[1].Remove(0, 4096) }},
		// A destager wired to the dirty set itself instead of the adapter
		// drains the dirt behind the total.
		{"Destager", "dirty bytes total", func(l *Logged) {
			l.arr.DataCopier(l.arr.Primaries[1], l.arr.Mirrors[1], &l.dirty[1]).Kick()
			l.arr.Eng.Run()
		}},
	} {
		t.Run(m.name, func(t *testing.T) {
			a, eng := testArray(t, 2, 0)
			l, err := NewLogged(a, LogLayout{Scheme: "test", Spaces: 1, SpaceBytes: 1 << 20, PrimaryBacked: true})
			if err != nil {
				t.Fatal(err)
			}
			san := invariant.New("test", eng)
			san.SetSource(l)
			l.SetSanitizer(san.Audit())
			if _, ok := l.Alloc(0, 8192, 1); !ok {
				t.Fatal("log alloc failed")
			}
			l.MarkDirty(1, 0, 8192)
			san.Final(eng.Now())
			if err := san.Err(); err != nil {
				t.Fatalf("sweep before the skipped update: %v", err)
			}
			m.skip(l)
			san.Final(eng.Now())
			vs := san.Violations()
			if len(vs) == 0 {
				t.Fatal("skipped running-total update went undetected")
			}
			if v := vs[0]; v.Check != "accounting" || !strings.Contains(v.Error(), m.object) {
				t.Fatalf("first violation %v, want an accounting violation of the %s", v, m.object)
			}
		})
	}
}

// TestRunningTotalsFollowHelpers drives every helper that moves the log or
// the dirt, the pair destager's adapter included, with a sweep after
// each: the running totals must equal the walked sums throughout.
func TestRunningTotalsFollowHelpers(t *testing.T) {
	a, eng := testArray(t, 2, 0)
	l, err := NewLogged(a, LogLayout{Scheme: "test", Spaces: 2, SpaceBytes: 1 << 20, PrimaryBacked: true})
	if err != nil {
		t.Fatal(err)
	}
	san := invariant.New("test", eng)
	san.SetSource(l)
	l.SetSanitizer(san.Audit())
	alloc := func(i int, n int64, tag int) {
		if _, ok := l.Alloc(i, n, tag); !ok {
			t.Fatal("log alloc failed")
		}
	}
	for _, step := range []struct {
		name string
		do   func()
	}{
		{"Alloc", func() { alloc(0, 8192, 1); alloc(1, 4096, 0) }},
		{"MarkDirty", func() { l.MarkDirty(1, 0, 4<<20); l.MarkDirty(0, 4096, 8192) }},
		{"CleanDirty", func() { l.CleanDirty(1, 1<<20, 2<<20) }},
		{"Destager", func() { l.Destager(1).Kick(); eng.Run() }},
		{"ReleaseTag", func() { l.ReleaseTag(1) }},
		{"DestageEach", func() {
			l.MarkDirty(1, 0, 64<<10)
			l.DestageEach(func(p int, work *intervals.Set) *Copier {
				return a.DataCopier(a.Primaries[p], a.Mirrors[p], work)
			}, func(sim.Time) {})
			eng.Run()
		}},
		{"ClearDirty", func() { l.MarkDirty(0, 0, 4096); l.ClearDirty(0) }},
		{"ResetSpace", func() { l.ResetSpace(1) }},
	} {
		step.do()
		san.Final(eng.Now())
		if err := san.Err(); err != nil {
			t.Fatalf("after %s: %v", step.name, err)
		}
		st := l.SanitizerState()
		var dirty int64
		for _, d := range st.DirtyBytes {
			dirty += d
		}
		used, capacity, backlog := l.TelemetryGauges()
		if used != st.LogTotal || backlog != dirty || capacity != 2<<20 {
			t.Fatalf("after %s: gauges used %d cap %d backlog %d, walked %d used, %d dirty",
				step.name, used, capacity, backlog, st.LogTotal, dirty)
		}
	}
	if used, _, backlog := l.TelemetryGauges(); used != 0 || backlog != 0 {
		t.Fatalf("after every step: %d bytes logged, %d dirty, want none", used, backlog)
	}
}
