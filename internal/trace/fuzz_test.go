package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzParseMSR checks that the MSR CSV parser never panics and that
// accepted inputs survive a write/re-parse round trip: ParseMSR output is
// base-normalized (first record at time zero), so WriteMSR followed by
// ParseMSR must reproduce the records exactly.
func FuzzParseMSR(f *testing.F) {
	f.Add("128166372003061629,hm,1,Read,383496192,32768,571\n" +
		"128166372016382155,hm,1,Write,2216306688,4096,258\n")
	f.Add("0,h,0,write,0,4096,0\n")
	f.Add("10, h ,0, READ ,4096,8192,5\n")
	f.Add("")
	f.Add("not,a,valid,row\n")
	f.Add("9223372036854775807,h,0,Read,0,4096,0\n-9223372036854775808,h,0,Read,0,4096,0\n")
	f.Add("0,h,0,Read,0,-1,0\n")
	f.Add("0,h,0,scrub,0,4096,0\n")
	f.Fuzz(func(t *testing.T, data string) {
		recs, err := ParseMSR(strings.NewReader(data))
		if err != nil {
			return
		}
		// WriteMSR re-encodes timestamps as At*10 file-time ticks; skip the
		// round trip when that multiplication would overflow (possible
		// because ParseMSR divides a difference that may itself have
		// wrapped).
		for _, r := range recs {
			if r.At < math.MinInt64/20 || r.At > math.MaxInt64/20 {
				return
			}
		}
		var buf bytes.Buffer
		if err := WriteMSR(&buf, "fuzz", 0, recs); err != nil {
			t.Fatalf("WriteMSR on parsed records: %v", err)
		}
		back, err := ParseMSR(&buf)
		if err != nil {
			t.Fatalf("re-parse of WriteMSR output: %v\n%s", err, buf.String())
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip: %d records, want %d", len(back), len(recs))
		}
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("round trip record %d: %+v, want %+v", i, back[i], recs[i])
			}
		}
	})
}

// FuzzParseSyntheticSpec checks the spec parser's contract: it never
// panics, every accepted spec passes Validate, and SpecString is a fixed
// point — re-parsing a rendered spec yields the identical rendering.
// Validate rejects NaN in every float field, so the "write=NaN" seed is a
// rejected input. Renderings rather than structs are compared, which keeps
// the check sound for any float value that is not equal to itself.
func FuzzParseSyntheticSpec(f *testing.F) {
	f.Add("")
	f.Add("iops=200 write=0.9 duration=10m size=64K random=0.7 seed=3")
	f.Add("iops=12.5,write=0.35,duration=1h30m,size=4096,fixed,burst=0.8")
	f.Add("duty=0.25 on=10s wws=2G rws=512M disjoint zipf=1.2 hot=0.8 recent=0.1")
	f.Add("duration=1us iops=0.001")
	f.Add("size=8388607K")
	f.Add("write=NaN")
	f.Add("seed=-1 seed=-1")
	f.Add("fixed=1")
	f.Add("iops=inf")
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseSyntheticSpec(spec)
		if err != nil {
			return
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("accepted spec %q fails Validate: %v", spec, verr)
		}
		s1 := c.SpecString()
		c2, err := ParseSyntheticSpec(s1)
		if err != nil {
			t.Fatalf("SpecString output %q rejected: %v", s1, err)
		}
		if s2 := c2.SpecString(); s2 != s1 {
			t.Fatalf("SpecString not a fixed point:\n  %q\n  %q", s1, s2)
		}
	})
}
