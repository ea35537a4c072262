package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/rolo-storage/rolo/internal/sim"
)

const testVolume = int64(64) << 30

func TestSyntheticValidate(t *testing.T) {
	good := Uniform70Random64K(100, sim.Minute, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	atBound := Synthetic{Duration: sim.Second, IOPS: maxArrivals, AvgReqBytes: 4096}
	if err := atBound.Validate(); err != nil {
		t.Fatalf("%d expected arrivals rejected: %v", maxArrivals, err)
	}
	bad := []Synthetic{
		{Duration: 0, IOPS: 1, AvgReqBytes: 4096},
		{Duration: sim.Second, IOPS: 0, AvgReqBytes: 4096},
		{Duration: sim.Second, IOPS: 1, AvgReqBytes: 100},
		{Duration: sim.Second, IOPS: 1, AvgReqBytes: 4096, WriteRatio: 1.5},
		{Duration: sim.Second, IOPS: 1, AvgReqBytes: 4096, RandomFrac: -0.1},
		{Duration: sim.Second, IOPS: 1, AvgReqBytes: 4096, Burstiness: 1},
		{Duration: sim.Second, IOPS: 1, AvgReqBytes: 4096, ReadZipfS: 0.5},
		{Duration: sim.Second, IOPS: math.Inf(1), AvgReqBytes: 4096},
		{Duration: sim.Second, IOPS: math.NaN(), AvgReqBytes: 4096},
		{Duration: sim.Second, IOPS: 1, AvgReqBytes: 4096, WriteRatio: math.NaN()},
		{Duration: sim.Second, IOPS: 1, AvgReqBytes: 4096, RandomFrac: math.NaN()},
		{Duration: sim.Second, IOPS: 1, AvgReqBytes: 4096, DutyCycle: math.NaN()},
		{Duration: sim.Second, IOPS: 1, AvgReqBytes: 4096, RecentReadFrac: math.NaN()},
		{Duration: sim.Second, IOPS: 1, AvgReqBytes: 4096, ReadHotFrac: math.NaN()},
		{Duration: sim.Second, IOPS: 1, AvgReqBytes: 4096, ReadZipfS: math.NaN()},
		{Duration: 1000 * sim.Hour, IOPS: 1e12, AvgReqBytes: 4096},
		// A vanishing duty cycle whose first ON phase covers the window
		// still arrives at the full ON rate.
		{Duration: 1000 * sim.Hour, IOPS: 1e6, AvgReqBytes: 4096, DutyCycle: 1e-12, OnPeriod: 1000 * sim.Hour},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Uniform70Random64K(50, 10*sim.Second, 42)
	a, err := cfg.Generate(testVolume)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Generate(testVolume)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratePoissonRate(t *testing.T) {
	cfg := Uniform70Random64K(100, 10*sim.Minute, 7)
	recs, err := cfg.Generate(testVolume)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(len(recs)) / cfg.Duration.Seconds()
	if math.Abs(got-100)/100 > 0.05 {
		t.Fatalf("achieved IOPS = %.2f, want 100 ± 5%%", got)
	}
	if err := Validate(recs, testVolume); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateBurstyPreservesRate(t *testing.T) {
	for _, burst := range []float64{0.3, 0.6, 0.85} {
		cfg := Uniform70Random64K(80, 20*sim.Minute, 11)
		cfg.Burstiness = burst
		recs, err := cfg.Generate(testVolume)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(len(recs)) / cfg.Duration.Seconds()
		if math.Abs(got-80)/80 > 0.15 {
			t.Fatalf("burst=%g: achieved IOPS = %.2f, want 80 ± 15%%", burst, got)
		}
		if err := Validate(recs, testVolume); err != nil {
			t.Fatalf("burst=%g: %v", burst, err)
		}
	}
}

// Burstiness should concentrate arrivals: the variance of per-second
// arrival counts must grow with the burstiness parameter.
func TestBurstinessIncreasesVariance(t *testing.T) {
	variance := func(burst float64) float64 {
		cfg := Uniform70Random64K(50, 10*sim.Minute, 5)
		cfg.Burstiness = burst
		recs, err := cfg.Generate(testVolume)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, int(cfg.Duration/sim.Second)+1)
		for _, r := range recs {
			counts[int(r.At/sim.Second)]++
		}
		var mean float64
		for _, c := range counts {
			mean += float64(c)
		}
		mean /= float64(len(counts))
		var v float64
		for _, c := range counts {
			v += (float64(c) - mean) * (float64(c) - mean)
		}
		return v / float64(len(counts))
	}
	smooth, bursty := variance(0), variance(0.85)
	if bursty < 3*smooth {
		t.Fatalf("variance smooth=%.1f bursty=%.1f; bursty should be >= 3x smooth", smooth, bursty)
	}
}

func TestWriteRatio(t *testing.T) {
	cfg := Synthetic{
		Duration: 5 * sim.Minute, IOPS: 200, WriteRatio: 0.75,
		AvgReqBytes: 16 << 10, Seed: 9,
	}
	recs, err := cfg.Generate(testVolume)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(recs)
	if math.Abs(s.WriteRatio-0.75) > 0.03 {
		t.Fatalf("write ratio = %.3f, want 0.75 ± 0.03", s.WriteRatio)
	}
}

func TestAvgRequestSizePreserved(t *testing.T) {
	cfg := Synthetic{
		Duration: 5 * sim.Minute, IOPS: 200, WriteRatio: 1,
		AvgReqBytes: 64 << 10, Seed: 3,
	}
	recs, err := cfg.Generate(testVolume)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(recs)
	want := float64(64 << 10)
	if math.Abs(s.AvgReqBytes-want)/want > 0.08 {
		t.Fatalf("avg request = %.0f, want %.0f ± 8%%", s.AvgReqBytes, want)
	}
}

func TestSequentialRuns(t *testing.T) {
	cfg := Synthetic{
		Duration: sim.Minute, IOPS: 100, WriteRatio: 1,
		AvgReqBytes: 64 << 10, FixedSize: true, RandomFrac: 0.3, Seed: 13,
	}
	recs, err := cfg.Generate(testVolume)
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	for i := 1; i < len(recs); i++ {
		if recs[i].Offset == recs[i-1].End() {
			seq++
		}
	}
	frac := float64(seq) / float64(len(recs)-1)
	if math.Abs(frac-0.7) > 0.1 {
		t.Fatalf("sequential continuation fraction = %.2f, want ~0.7", frac)
	}
}

func TestZipfReadsAreSkewed(t *testing.T) {
	cfg := Synthetic{
		Duration: 2 * sim.Minute, IOPS: 500, WriteRatio: 0,
		AvgReqBytes: 4 << 10, FixedSize: true,
		ReadWorkingSetBytes: 1 << 30, ReadZipfS: 1.5, Seed: 21,
	}
	recs, err := cfg.Generate(testVolume)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	for _, r := range recs {
		counts[r.Offset]++
	}
	// With Zipf s=1.5 the hottest block must take a sizable share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(len(recs)) < 0.1 {
		t.Fatalf("hottest block share = %.3f, expected >= 0.1 under Zipf(1.5)",
			float64(max)/float64(len(recs)))
	}
}

// Property: generated traces are always valid — time-ordered, in-bounds,
// block-aligned, positive sizes — for arbitrary parameter combinations.
func TestQuickGeneratedTracesValid(t *testing.T) {
	f := func(seed int64, iopsRaw, wrRaw, burstRaw uint16) bool {
		cfg := Synthetic{
			Duration:    30 * sim.Second,
			IOPS:        1 + float64(iopsRaw%300),
			WriteRatio:  float64(wrRaw%101) / 100,
			AvgReqBytes: 8 << 10,
			RandomFrac:  0.5,
			Burstiness:  float64(burstRaw%90) / 100,
			Seed:        seed,
		}
		recs, err := cfg.Generate(testVolume)
		if err != nil {
			return false
		}
		if err := Validate(recs, testVolume); err != nil {
			return false
		}
		for _, r := range recs {
			if r.Offset%BlockAlign != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileCalibration(t *testing.T) {
	// Scaled-down generation must still match the published aggregate
	// statistics of each trace within tolerance. The published IOPS is
	// the burst rate; the long-run rate is IOPS x duty cycle.
	for _, name := range ProfileNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			p := Profiles[name]
			scale := 0.02
			if p.EffectiveIOPS() < 2 { // low-rate traces need a longer window
				scale = 0.10
			}
			recs, err := p.Generate(testVolume, scale)
			if err != nil {
				t.Fatal(err)
			}
			s := Summarize(recs)
			if math.Abs(s.WriteRatio-p.WriteRatio) > 0.05 {
				t.Errorf("write ratio = %.4f, want %.4f", s.WriteRatio, p.WriteRatio)
			}
			wantIOPS := p.EffectiveIOPS()
			if wantIOPS > 0.5 && math.Abs(s.IOPS-wantIOPS)/wantIOPS > 0.2 {
				t.Errorf("IOPS = %.2f, want %.2f ± 20%% (duty %.3f)", s.IOPS, wantIOPS, p.DutyCycle())
			}
			if math.Abs(s.AvgReqBytes-float64(p.AvgReqBytes))/float64(p.AvgReqBytes) > 0.15 {
				t.Errorf("avg req = %.0f, want %d ± 15%%", s.AvgReqBytes, p.AvgReqBytes)
			}
			wantWrite := float64(p.ExpectedWriteBytes(scale))
			if wantWrite > 0 && math.Abs(float64(s.WriteBytes)-wantWrite)/wantWrite > 0.25 {
				t.Errorf("write bytes = %d, want %.0f ± 25%%", s.WriteBytes, wantWrite)
			}
		})
	}
}

func TestProfileDutyCycles(t *testing.T) {
	// The published numbers imply src2_2 bursts hard (~1 % duty) while
	// proj_0 is far steadier (~14 %) — the Table V burstiness contrast.
	if d := Src2_2.DutyCycle(); d < 0.005 || d > 0.03 {
		t.Errorf("src2_2 duty = %.4f, want ~0.011", d)
	}
	if d := Proj_0.DutyCycle(); d < 0.08 || d > 0.25 {
		t.Errorf("proj_0 duty = %.4f, want ~0.14", d)
	}
	if Src2_2.DutyCycle() >= Proj_0.DutyCycle() {
		t.Error("src2_2 must be burstier (lower duty) than proj_0")
	}
	// All profiles replay the 7-day MSR window.
	for _, name := range ProfileNames() {
		p := Profiles[name]
		if p.Duration() != 7*24*sim.Hour {
			t.Errorf("%s duration = %v, want 168h", name, p.Duration())
		}
		if d := p.DutyCycle(); d <= 0 || d > 1 {
			t.Errorf("%s duty = %g", name, d)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("src2_2"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if len(ProfileNames()) != 7 {
		t.Fatalf("ProfileNames() has %d entries, want 7", len(ProfileNames()))
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Requests != 0 || s.IOPS != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestValidateRejectsDisorder(t *testing.T) {
	recs := []Record{
		{At: 10, Op: Write, Offset: 0, Size: 4096},
		{At: 5, Op: Write, Offset: 0, Size: 4096},
	}
	if err := Validate(recs, testVolume); err == nil {
		t.Fatal("out-of-order records accepted")
	}
	recs = []Record{{At: 1, Op: Op(9), Offset: 0, Size: 4096}}
	if err := Validate(recs, testVolume); err == nil {
		t.Fatal("bad op accepted")
	}
	recs = []Record{{At: 1, Op: Read, Offset: testVolume, Size: 4096}}
	if err := Validate(recs, testVolume); err == nil {
		t.Fatal("out-of-bounds record accepted")
	}
}

func TestMSRRoundTrip(t *testing.T) {
	cfg := Uniform70Random64K(50, 30*sim.Second, 17)
	cfg.WriteRatio = 0.8
	orig, err := cfg.Generate(testVolume)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMSR(&buf, "host", 0, orig); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseMSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(orig) {
		t.Fatalf("round trip: %d records, want %d", len(parsed), len(orig))
	}
	// ParseMSR normalizes timestamps so the first record is at zero.
	base := orig[0].At
	for i := range orig {
		want := orig[i]
		want.At -= base
		if parsed[i] != want {
			t.Fatalf("record %d: %+v != %+v", i, parsed[i], want)
		}
	}
}

func TestParseMSRRealFormat(t *testing.T) {
	// A snippet in the documented MSR format: Windows file times.
	in := "128166372003061629,src2,2,Write,3556352,4096,1331\n" +
		"128166372013061629,src2,2,Read,7168000,8192,500\n"
	recs, err := ParseMSR(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("parsed %d records, want 2", len(recs))
	}
	if recs[0].At != 0 {
		t.Errorf("first record not normalized to 0: %v", recs[0].At)
	}
	if recs[1].At != sim.Second {
		t.Errorf("second record at %v, want 1s (10^7 ticks)", recs[1].At)
	}
	if recs[0].Op != Write || recs[1].Op != Read {
		t.Error("ops not parsed")
	}
	if recs[0].Offset != 3556352 || recs[0].Size != 4096 {
		t.Errorf("offset/size not parsed: %+v", recs[0])
	}
}

func TestParseMSRErrors(t *testing.T) {
	cases := []string{
		"notanumber,h,0,Write,0,4096,0\n",
		"1,h,0,Frobnicate,0,4096,0\n",
		"1,h,0,Write,zero,4096,0\n",
		"1,h,0,Write,0,bad,0\n",
		"1,h,0,Write,0,-5,0\n",
		"1,h,0\n",
	}
	for i, in := range cases {
		if _, err := ParseMSR(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: bad input accepted: %q", i, in)
		}
	}
}

func TestExpectedWriteBytes(t *testing.T) {
	cfg := Uniform70Random64K(100, 10*sim.Second, 1)
	want := int64(100 * 10 * 64 << 10)
	if got := cfg.ExpectedWriteBytes(); got != want {
		t.Fatalf("ExpectedWriteBytes = %d, want %d", got, want)
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := Uniform70Random64K(200, sim.Minute, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Generate(testVolume); err != nil {
			b.Fatal(err)
		}
	}
}
