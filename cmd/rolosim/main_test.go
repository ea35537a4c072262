package main

import (
	"fmt"
	"strings"
	"testing"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/trace"
)

// smallConfig is rolosim's configuration for -scheme RAID10 -scale 0.001
// -pairs 2: a 20 MiB volume.
func smallConfig() rolo.Config {
	cfg := rolo.ScaledConfig(rolo.SchemeRAID10, 0.001, 8)
	cfg.Pairs = 2
	cfg.StripeUnitBytes = 64 << 10
	return cfg
}

// msr renders records as MSR CSV lines, one second apart.
func msr(recs ...trace.Record) string {
	var b strings.Builder
	for i, r := range recs {
		fmt.Fprintf(&b, "%d,host,0,%s,%d,%d,0\n", int64(i)*10_000_000, r.Op, r.Offset, r.Size)
	}
	return b.String()
}

// TestClampRecordFillingVolume: a record as large as the volume starts at
// offset 0 and the run completes, where the clamp once divided by zero.
func TestClampRecordFillingVolume(t *testing.T) {
	cfg := smallConfig()
	volume := cfg.VolumeBytes()
	recs, err := trace.ParseMSR(strings.NewReader(msr(
		trace.Record{Op: trace.Write, Offset: 1 << 20, Size: volume},
		trace.Record{Op: trace.Read, Offset: 0, Size: 4096},
	)))
	if err != nil {
		t.Fatal(err)
	}
	recs, err = clampToVolume(recs, volume)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Offset != 0 || recs[0].Size != volume {
		t.Fatalf("clamped to %+v, want the full-volume write at offset 0", recs)
	}
	rep, err := rolo.Run(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 2 {
		t.Fatalf("%d requests served, want 2", rep.Requests)
	}
}

// TestClampRejectsRecordLargerThanVolume: a record that cannot fit is an
// error naming its trace line, not a silent wrap.
func TestClampRejectsRecordLargerThanVolume(t *testing.T) {
	volume := smallConfig().VolumeBytes()
	recs := []trace.Record{
		{Op: trace.Read, Offset: 0, Size: 4096},
		{Op: trace.Write, Offset: 0, Size: volume + 512},
	}
	_, err := clampToVolume(recs, volume)
	if err == nil || !strings.Contains(err.Error(), "trace line 2") {
		t.Fatalf("error %v, want one naming trace line 2", err)
	}
}

// TestClampInRange: records past the end land inside the volume on a
// 512-byte boundary, keep their size, and records inside are untouched.
func TestClampInRange(t *testing.T) {
	volume := smallConfig().VolumeBytes()
	in := []trace.Record{
		{Op: trace.Write, Offset: 3 * volume, Size: 8192},
		{Op: trace.Read, Offset: volume - 100, Size: 4096},
		{Op: trace.Write, Offset: 7*volume + 12345, Size: 65536},
		{Op: trace.Read, Offset: 4096, Size: 4096},
	}
	out, err := clampToVolume(append([]trace.Record(nil), in...), volume)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("%d records kept of %d", len(out), len(in))
	}
	for i, r := range out {
		if r.Offset < 0 || r.End() > volume || r.Offset%512 != 0 || r.Size != in[i].Size {
			t.Errorf("record %d clamped to %+v: outside [0,%d), unaligned or resized", i, r, volume)
		}
	}
	if out[3] != in[3] {
		t.Errorf("in-volume record moved: %+v, want %+v", out[3], in[3])
	}
}
