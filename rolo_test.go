package rolo

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

// smallConfig returns a 4-pair array with small disks so logging cycles,
// rotations and destages all happen within short tests.
func smallConfig(s Scheme) Config {
	cfg := DefaultConfig(s)
	cfg.Pairs = 4
	cfg.Disk.CapacityBytes = 1 << 30 // 1 GiB drives
	cfg.FreeBytesPerDisk = 512 << 20 // half free, as in the paper
	cfg.GRAID.LogCapacityBytes = 512 << 20
	return cfg
}

// writeHeavy generates a workload that writes several times the logging
// capacity, forcing rotations/destages.
func writeHeavy(t testing.TB, cfg Config, iops float64, dur sim.Time, writeRatio float64) []trace.Record {
	t.Helper()
	syn := trace.Synthetic{
		Duration:             dur,
		IOPS:                 iops,
		WriteRatio:           writeRatio,
		AvgReqBytes:          64 << 10,
		FixedSize:            true,
		RandomFrac:           0.7,
		WriteWorkingSetBytes: cfg.VolumeBytes() / 2,
		ReadWorkingSetBytes:  256 << 20,
		ReadZipfS:            1.4,
		Seed:                 7,
	}
	recs, err := syn.Generate(cfg.VolumeBytes())
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestRunAllSchemesSmoke(t *testing.T) {
	for _, s := range Schemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := smallConfig(s)
			recs := writeHeavy(t, cfg, 100, 2*sim.Minute, 0.95)
			rep, err := Run(cfg, recs)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Requests != int64(len(recs)) {
				t.Errorf("Requests = %d, want %d (every request must complete)",
					rep.Requests, len(recs))
			}
			if rep.EnergyJ <= 0 {
				t.Errorf("EnergyJ = %g", rep.EnergyJ)
			}
			if rep.MeanResponseMs <= 0 {
				t.Errorf("MeanResponseMs = %g", rep.MeanResponseMs)
			}
			if rep.DrainedAt < rep.Horizon {
				t.Errorf("drained at %v before horizon %v", rep.DrainedAt, rep.Horizon)
			}
			t.Logf("%-7s energy=%.0fJ mean=%.2fms p99=%.1fms spins=%d rot=%d dest=%d hit=%.2f direct=%d",
				s, rep.EnergyJ, rep.MeanResponseMs, rep.P99ResponseMs,
				rep.SpinCycles, rep.Rotations, rep.Destages, rep.ReadHitRate, rep.DirectWrites)
		})
	}
}
