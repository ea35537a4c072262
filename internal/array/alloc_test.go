package array_test

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/array"
	"github.com/rolo-storage/rolo/internal/baseline"
	"github.com/rolo-storage/rolo/internal/core"
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

// TestControllersSteadyStateZeroAllocs pins the per-request allocation
// contract of every scheme controller: once warm, submitting a read or a
// logged write and draining the engine allocates nothing. The request
// spans two stripe units, so every submit maps to several extents and
// joins several sub-I/Os.
//
// RoLo-E's read is a hit (the block is dirty in the on-duty log). A miss
// is left out: it inserts the fetched blocks into the read cache, whose
// container/list nodes allocate, the standby disk it wakes allocates a
// closure per spin transition, and it keeps a completion closure per
// extent (see RoLoE.submitRead).
func TestControllersSteadyStateZeroAllocs(t *testing.T) {
	schemes := []struct {
		name   string
		extras int
		build  func(*array.Array) (array.Controller, error)
	}{
		{"RAID10", 0, func(a *array.Array) (array.Controller, error) { return baseline.NewRAID10(a), nil }},
		{"GRAID", 1, func(a *array.Array) (array.Controller, error) {
			return baseline.NewGRAID(a, baseline.DefaultGRAIDConfig())
		}},
		{"RoLo-P", 0, func(a *array.Array) (array.Controller, error) {
			return core.New(a, core.FlavorP, core.DefaultConfig())
		}},
		{"RoLo-R", 0, func(a *array.Array) (array.Controller, error) {
			return core.New(a, core.FlavorR, core.DefaultConfig())
		}},
		{"RoLo-E", 0, func(a *array.Array) (array.Controller, error) {
			return core.NewE(a, core.DefaultEConfig())
		}},
	}
	for _, s := range schemes {
		t.Run(s.name, func(t *testing.T) {
			eng := sim.New()
			geom := raid.Geometry{Pairs: 4, StripeUnitBytes: 64 << 10, DataBytesPerDisk: 256 << 20}
			arr, err := array.New(eng, geom, disk.Ultrastar36Z15().WithCapacity(16<<30), s.extras)
			if err != nil {
				t.Fatal(err)
			}
			ctrl, err := s.build(arr)
			if err != nil {
				t.Fatal(err)
			}
			submit := func(op trace.Op) {
				rec := trace.Record{At: eng.Now(), Op: op, Offset: 32 << 10, Size: 64 << 10}
				if err := ctrl.Submit(rec); err != nil {
					t.Fatal(err)
				}
				eng.Run()
			}
			for i := 0; i < 64; i++ {
				submit(trace.Write)
				submit(trace.Read)
			}
			for _, op := range []trace.Op{trace.Read, trace.Write} {
				if n := testing.AllocsPerRun(100, func() { submit(op) }); n != 0 {
					t.Errorf("%v submit+drain: %v allocs/op, want 0", op, n)
				}
			}
		})
	}
}
