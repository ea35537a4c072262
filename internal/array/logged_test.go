package array

import (
	"runtime"
	"testing"

	"github.com/rolo-storage/rolo/internal/intervals"
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
