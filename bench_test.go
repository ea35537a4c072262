package rolo_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment via the registry
// in internal/experiments at a reduced scale (see the experiments package
// comment for why scaling preserves the paper's comparisons) and logs the
// regenerated rows, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. BENCH_SCALE and BENCH_PAIRS env vars
// override the defaults (0.02 / 10 pairs) for full-fidelity runs.

import (
	"bytes"
	"os"
	"strconv"
	"testing"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/experiments"
)

func benchOptions() experiments.Options {
	o := experiments.Options{Scale: 0.02, Pairs: 10}
	if v := os.Getenv("BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			o.Scale = f
		}
	}
	if v := os.Getenv("BENCH_PAIRS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			o.Pairs = n
		}
	}
	return o
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	o := benchOptions()
	var out bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := e.Run(o, &out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("\n%s", out.String())
}

// BenchmarkFig2 regenerates Figure 2: the Section II motivation study of
// centralized logging (destaging interval and energy ratios vs logger
// capacity and I/O intensity).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3 regenerates Figure 3: IDLE vs ACTIVE/STANDBY time
// fractions for primaries and the log disk.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig9 regenerates Figure 9: MTTDL vs MTTR for the four schemes.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkEquations cross-checks Equations (1)-(5) against the exact
// CTMC solutions.
func BenchmarkEquations(b *testing.B) { benchExperiment(b, "eqs") }

// BenchmarkFig10 regenerates Figure 10: energy and response time of all
// five schemes under src2_2 and proj_0.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkTable1 regenerates Table I: disk spin up/down counts.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable4 regenerates Table IV: the comparison summary.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5 regenerates Table V: RoLo-E read behaviour.
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkFig11 regenerates Figure 11: energy saved vs array size.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12: response time vs array size.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13: energy saved over GRAID vs free
// storage space.
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14 regenerates Figure 14: the non-write-intensive traces.
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkStripeSensitivity regenerates the Section V-C stripe-unit
// sensitivity study.
func BenchmarkStripeSensitivity(b *testing.B) { benchExperiment(b, "stripe") }

// BenchmarkDiskSizeSensitivity regenerates the Section V-C disk-size
// sensitivity study.
func BenchmarkDiskSizeSensitivity(b *testing.B) { benchExperiment(b, "disksize") }

// BenchmarkAblationBackgroundGuard measures the idle-slot detector: with
// the guard disabled, destaging consumes microscopic gaps inside bursts
// and log appends lose sequentiality.
func BenchmarkAblationBackgroundGuard(b *testing.B) {
	o := benchOptions()
	for _, guard := range []bool{true, false} {
		guard := guard
		name := "guarded"
		if !guard {
			name = "unguarded"
		}
		b.Run(name, func(b *testing.B) {
			cfg := rolo.ScaledConfig(rolo.SchemeRoLoP, o.Scale, 8)
			cfg.Pairs = o.Pairs
			if !guard {
				cfg.Disk.BackgroundGuard = 0
			}
			recs, err := rolo.GenerateProfile("src2_2", cfg, o.Scale)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var rep rolo.Report
			for i := 0; i < b.N; i++ {
				rep, err = rolo.Run(cfg, recs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(rep.MeanResponseMs, "mean-ms")
			b.ReportMetric(rep.P99ResponseMs, "p99-ms")
		})
	}
}

// BenchmarkRecovery regenerates the Section III-C/D failure study.
func BenchmarkRecovery(b *testing.B) { benchExperiment(b, "recovery") }
