package invariant

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/logspace"
	"github.com/rolo-storage/rolo/internal/sim"
)

// BenchmarkCoreSanitizerSweep measures one sweep of a RoLo-P-shaped array's
// log: 20 spaces of ~1000 spans each over 20 pair tags, with the holes of
// a released tag in every free set, all allocated through the audit. Each
// op first changes one space, in turn, by an audited allocation or release
// of a churn tag, so a sweep checks that space in full and skips the
// other 19.
func BenchmarkCoreSanitizerSweep(b *testing.B) {
	const (
		spaces = 20
		pairs  = 20
		chunk  = 4096
		n      = 1000
		churn  = pairs + 1
	)
	eng := sim.New()
	san := New("bench", eng)
	src := &fakeSource{}
	san.SetSource(src)
	a := san.Audit()
	for i := 0; i < spaces; i++ {
		sp, err := logspace.New((n + n/4) * chunk)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < n; j++ {
			tag := j % (pairs + 1)
			if _, ok := sp.Alloc(chunk, tag); !ok {
				b.Fatalf("alloc %d failed", j)
			}
			a.Alloc(sp, tag, chunk)
		}
		a.Release(sp, pairs, sp.ReleaseTag(pairs), 0)
		src.spaces = append(src.spaces, sp)
	}
	san.Final(eng.Now())
	if err := san.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := src.spaces[i%spaces]
		if sp.TagBytes(churn) > 0 {
			a.Release(sp, churn, sp.ReleaseTag(churn), 0)
		} else {
			if _, ok := sp.Alloc(chunk, churn); !ok {
				b.Fatal("churn alloc failed")
			}
			a.Alloc(sp, churn, chunk)
		}
		san.Final(eng.Now())
	}
	if err := san.Err(); err != nil {
		b.Fatal(err)
	}
}
