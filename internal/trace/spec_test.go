package trace

import (
	"strings"
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
)

func TestParseSyntheticSpec(t *testing.T) {
	c, err := ParseSyntheticSpec("iops=200, write=0.9\tduration=10m size=64K fixed seed=3 wws=2G")
	if err != nil {
		t.Fatal(err)
	}
	want := Synthetic{
		Duration:             600 * sim.Second,
		IOPS:                 200,
		WriteRatio:           0.9,
		AvgReqBytes:          64 << 10,
		FixedSize:            true,
		RandomFrac:           0.7, // default preserved
		Seed:                 3,
		WriteWorkingSetBytes: 2 << 30,
	}
	if c != want {
		t.Fatalf("parsed %+v, want %+v", c, want)
	}

	if _, err := ParseSyntheticSpec(""); err != nil {
		t.Fatalf("empty spec (all defaults): %v", err)
	}

	for _, tc := range []struct{ spec, errFrag string }{
		{"iops=0", "non-positive IOPS"},
		{"iops=inf duration=1s", "non-finite IOPS"},
		{"iops=1e12 duration=1000h", "expected arrivals exceed"},
		{"burst=NaN", "burstiness NaN"},
		{"write=NaN", "write ratio NaN"},
		{"random=NaN", "random fraction NaN"},
		{"duty=NaN", "duty cycle NaN"},
		{"recent=NaN", "recent-read fraction NaN"},
		{"hot=NaN", "hot-read fraction NaN"},
		{"zipf=NaN", "Zipf s must exceed 1, got NaN"},
		{"bogus=1", "unknown key"},
		{"iops=5 iops=6", "duplicate key"},
		{"fixed=1", "flag key takes no value"},
		{"duration=10", "missing unit"},
		{"size=-4096", "negative byte count"},
		{"size=9999999999G", "overflow"},
		{"write", "missing value"},
	} {
		if _, err := ParseSyntheticSpec(tc.spec); err == nil || !strings.Contains(err.Error(), tc.errFrag) {
			t.Errorf("ParseSyntheticSpec(%q) = %v, want error containing %q", tc.spec, err, tc.errFrag)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	c := Synthetic{
		Duration:    90 * sim.Second,
		IOPS:        33.5,
		WriteRatio:  0.42,
		AvgReqBytes: 12288,
		RandomFrac:  0.1,
		Burstiness:  0.5,
		ReadZipfS:   1.2,
		ReadHotFrac: 0.7,
		Seed:        -4,
	}
	back, err := ParseSyntheticSpec(c.SpecString())
	if err != nil {
		t.Fatalf("re-parse %q: %v", c.SpecString(), err)
	}
	if back != c {
		t.Fatalf("round trip:\n got %+v\nwant %+v", back, c)
	}
}
