package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
)

func TestResponseStatsBasics(t *testing.T) {
	var r ResponseStats
	if r.Mean() != 0 || r.Count() != 0 {
		t.Fatal("zero value not empty")
	}
	r.AddClass(2*sim.Millisecond, false)
	r.AddClass(4*sim.Millisecond, false)
	r.AddClass(6*sim.Millisecond, false)
	if r.Count() != 3 {
		t.Fatalf("Count = %d", r.Count())
	}
	if got := r.Mean(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("Mean = %g ms, want 4", got)
	}
	if r.Max() != 6*sim.Millisecond {
		t.Fatalf("Max = %v", r.Max())
	}
}

func TestResponseStatsPercentile(t *testing.T) {
	var r ResponseStats
	for i := 1; i <= 100; i++ {
		r.AddClass(sim.Time(i)*sim.Millisecond, false)
	}
	if got := r.Percentile(50); math.Abs(got-50) > 1 {
		t.Fatalf("P50 = %g, want ~50", got)
	}
	if got := r.Percentile(99); math.Abs(got-99) > 1 {
		t.Fatalf("P99 = %g, want ~99", got)
	}
	if got := r.Percentile(0); got != 0 {
		t.Fatalf("P0 = %g, want 0 (invalid)", got)
	}
	if got := r.Percentile(101); got != 0 {
		t.Fatalf("P101 = %g, want 0 (invalid)", got)
	}
}

// TestResponseStatsPercentileMatchesReservoirEra checks histogram
// percentiles against the exact sorted-sample percentile the old 4096-
// sample reservoir computed (for n <= 4096 the reservoir held every
// sample, so its estimate was exact). The histogram must agree to within
// its documented ~1% bucket resolution.
func TestResponseStatsPercentileMatchesReservoirEra(t *testing.T) {
	var r ResponseStats
	samples := make([]sim.Time, 0, 4096)
	// A deterministic skewed stream: quadratic growth gives a long tail
	// like real response-time distributions.
	for i := 1; i <= 4096; i++ {
		v := sim.Time(i*i) * sim.Microsecond
		r.AddClass(v, false)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{1, 10, 50, 90, 95, 99, 99.9, 100} {
		idx := int(math.Ceil(p/100*float64(len(samples)))) - 1
		exact := samples[idx].Milliseconds()
		got := r.Percentile(p)
		if math.Abs(got-exact) > exact*0.01+1e-6 {
			t.Errorf("P%g = %g ms, exact %g ms", p, got, exact)
		}
	}
}

func TestResponseStatsClassBreakdown(t *testing.T) {
	var r ResponseStats
	r.AddClass(2*sim.Millisecond, false) // read
	r.AddClass(4*sim.Millisecond, false) // read
	r.AddClass(10*sim.Millisecond, true) // write
	if r.Count() != 3 {
		t.Fatalf("combined count = %d", r.Count())
	}
	if r.Reads().Count() != 2 || r.Writes().Count() != 1 {
		t.Fatalf("class counts = %d/%d", r.Reads().Count(), r.Writes().Count())
	}
	if got := r.Reads().Mean(); math.Abs(got-3) > 1e-9 {
		t.Fatalf("read mean = %g, want 3", got)
	}
	if got := r.Writes().Max(); got != 10*sim.Millisecond {
		t.Fatalf("write max = %v", got)
	}
	if r.Writes().Histogram().Total() != 1 {
		t.Fatalf("write histogram total = %d", r.Writes().Histogram().Total())
	}
}

// TestResponseStatsAllMatchesDirect: over random read/write sequences,
// the merged All() equals one histogram fed every response directly in
// count, sum, max and every quantile, and so do the combined accessors.
func TestResponseStatsAllMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var r ResponseStats
		var direct telemetry.Histogram
		writeFrac := rng.Float64()
		for i, n := 0, rng.Intn(2000); i < n; i++ {
			// Log-uniform latencies from 1 µs to ~30 s cover every octave.
			rt := sim.Time(math.Exp(rng.Float64() * math.Log(3e7)))
			r.AddClass(rt, rng.Float64() < writeFrac)
			direct.Observe(int64(rt))
		}
		all := r.All()
		h := all.Histogram()
		if h.Total() != direct.Total() || h.Sum() != direct.Sum() || h.Max() != direct.Max() {
			t.Fatalf("trial %d: All() total/sum/max %d/%g/%d, direct %d/%g/%d",
				trial, h.Total(), h.Sum(), h.Max(), direct.Total(), direct.Sum(), direct.Max())
		}
		if r.Count() != direct.Total() || r.Max() != sim.Time(direct.Max()) || r.Mean() != all.Mean() {
			t.Fatalf("trial %d: combined accessors disagree with All()", trial)
		}
		for p := 0.5; p <= 100; p += 0.5 {
			if got, want := h.Quantile(p), direct.Quantile(p); got != want {
				t.Fatalf("trial %d: P%g = %d, direct %d", trial, p, got, want)
			}
			if got, want := r.Percentile(p), sim.Time(direct.Quantile(p)).Milliseconds(); got != want {
				t.Fatalf("trial %d: Percentile(%g) = %g, direct %g", trial, p, got, want)
			}
		}
	}
}

func TestResponseStatsDeterministic(t *testing.T) {
	// Two identical streams must produce identical percentiles (the old
	// reservoir was deterministic too, but via a private RNG; the
	// histogram is deterministic by construction).
	run := func() float64 {
		var r ResponseStats
		for i := 0; i < 20000; i++ {
			r.AddClass(sim.Time(i%977)*sim.Millisecond, i%3 == 0)
		}
		return r.Percentile(99)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same stream gave P99 %g then %g", a, b)
	}
}

func TestPhaseLogAlternation(t *testing.T) {
	var l PhaseLog
	l.Begin(Logging, 0, 0)
	l.Begin(Destaging, 100*sim.Second, 500)
	l.Begin(Logging, 150*sim.Second, 900)
	l.End(250*sim.Second, 1400)
	ivs := l.Intervals()
	if len(ivs) != 3 {
		t.Fatalf("%d intervals, want 3", len(ivs))
	}
	want := []Interval{
		{Logging, 0, 100 * sim.Second, 500},
		{Destaging, 100 * sim.Second, 150 * sim.Second, 400},
		{Logging, 150 * sim.Second, 250 * sim.Second, 500},
	}
	for i := range want {
		if ivs[i] != want[i] {
			t.Fatalf("interval %d = %+v, want %+v", i, ivs[i], want[i])
		}
	}
}

func TestPhaseLogRatios(t *testing.T) {
	var l PhaseLog
	// 300s logging consuming 600 J, 100s destaging consuming 400 J.
	l.Begin(Logging, 0, 0)
	l.Begin(Destaging, 300*sim.Second, 600)
	l.End(400*sim.Second, 1000)
	if got := l.DestagingIntervalRatio(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("interval ratio = %g, want 0.25", got)
	}
	if got := l.DestagingEnergyRatio(); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("energy ratio = %g, want 0.4", got)
	}
}

func TestPhaseLogEmpty(t *testing.T) {
	var l PhaseLog
	if l.DestagingIntervalRatio() != 0 || l.DestagingEnergyRatio() != 0 {
		t.Fatal("empty log has non-zero ratios")
	}
	l.End(10, 5) // End without Begin is a no-op
	if len(l.Intervals()) != 0 {
		t.Fatal("End without Begin recorded an interval")
	}
}

// TestPhaseLogRunEndsMidDestage models a run that is cut off while a
// destage is still in progress: Close ends the open destaging interval at
// the horizon, and the partial interval must be accounted exactly.
func TestPhaseLogRunEndsMidDestage(t *testing.T) {
	var l PhaseLog
	l.Begin(Logging, 0, 0)
	l.Begin(Destaging, 60*sim.Second, 1000)
	l.End(90*sim.Second, 1900) // run drained mid-destage
	ivs := l.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("%d intervals, want 2", len(ivs))
	}
	last := ivs[1]
	if last.Phase != Destaging || last.Duration() != 30*sim.Second || last.EnergyJ != 900 {
		t.Fatalf("mid-destage interval = %+v", last)
	}
	if got := l.DestagingIntervalRatio(); math.Abs(got-float64(30)/90) > 1e-9 {
		t.Fatalf("interval ratio = %g", got)
	}
	// A second End must not double-record.
	l.End(95*sim.Second, 2000)
	if len(l.Intervals()) != 2 {
		t.Fatal("double End recorded an interval")
	}
}

// TestPhaseLogZeroDurationPhase covers a Begin immediately followed by a
// phase change at the same instant (e.g. a destage triggered at t=0).
func TestPhaseLogZeroDurationPhase(t *testing.T) {
	var l PhaseLog
	l.Begin(Logging, 0, 0)
	l.Begin(Destaging, 0, 0) // zero-length logging interval
	l.End(10*sim.Second, 100)
	ivs := l.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("%d intervals, want 2", len(ivs))
	}
	if ivs[0].Duration() != 0 || ivs[0].EnergyJ != 0 {
		t.Fatalf("zero-length interval = %+v", ivs[0])
	}
	if got := l.DestagingIntervalRatio(); got != 1 {
		t.Fatalf("interval ratio = %g, want 1", got)
	}
}

func TestPhaseString(t *testing.T) {
	if Logging.String() != "logging" || Destaging.String() != "destaging" {
		t.Fatal("phase names wrong")
	}
	if Phase(99).String() == "" {
		t.Fatal("unknown phase renders empty")
	}
}

func TestClassStatsTailRepresentative(t *testing.T) {
	// Feed a stream where the second half is 10x slower; percentiles must
	// land on the modes since every sample is counted.
	var r ResponseStats
	for i := 0; i < 20000; i++ {
		v := sim.Millisecond
		if i >= 10000 {
			v = 10 * sim.Millisecond
		}
		r.AddClass(v, false)
	}
	p50 := r.Percentile(50)
	if p50 < 0.99 || p50 > 10.01 {
		t.Fatalf("P50 = %g, want within [1,10]", p50)
	}
	p90 := r.Percentile(90)
	if math.Abs(p90-10) > 0.1 {
		t.Fatalf("P90 = %g, want ~10 (half the stream is 10ms)", p90)
	}
	if r.Max() != 10*sim.Millisecond {
		t.Fatalf("Max = %v", r.Max())
	}
}
