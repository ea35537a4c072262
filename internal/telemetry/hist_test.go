package telemetry

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestHistogramBucketLayout(t *testing.T) {
	// Exact unit buckets below 2^(histSubBits+1).
	for v := int64(0); v < 2<<histSubBits; v++ {
		i := bucketOf(v)
		if got := bucketValue(i); got != v {
			t.Fatalf("small value %d maps to bucket value %d", v, got)
		}
	}
	// Bucket indices are monotonic and representative values stay within
	// the guaranteed relative error at every scale.
	prev := -1
	for _, v := range []int64{1, 100, 127, 128, 129, 1000, 4096, 1 << 20, 1 << 40, 1 << 62} {
		i := bucketOf(v)
		if i < prev {
			t.Fatalf("bucket index not monotonic at %d", v)
		}
		prev = i
		rep := bucketValue(i)
		relErr := math.Abs(float64(rep-v)) / float64(v)
		if relErr > 1.0/float64(int64(1)<<(histSubBits+1)) {
			t.Fatalf("value %d: representative %d, relative error %.4f", v, rep, relErr)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Total() != 0 || h.Quantile(50) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not empty")
	}
	h.Observe(5)
	h.Observe(10)
	h.Observe(-3) // clamps to 0
	if h.Total() != 3 || h.Max() != 10 || h.Sum() != 15 {
		t.Fatalf("total=%d max=%d sum=%g", h.Total(), h.Max(), h.Sum())
	}
	if h.Quantile(0) != 0 || h.Quantile(101) != 0 {
		t.Fatal("out-of-range quantile not zero")
	}
	if got := h.Quantile(100); got != 10 {
		t.Fatalf("Q100 = %d, want 10", got)
	}
}

// TestHistogramQuantileExactness compares histogram quantiles against the
// exact sorted-sample percentile (what the old ≤4096-sample reservoir
// returned) across several distributions: the histogram must agree to
// within its bucket resolution.
func TestHistogramQuantileExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(1_000_000) },
		"exp":       func() int64 { return int64(rng.ExpFloat64() * 20_000) },
		"bimodal":   func() int64 { return []int64{1000, 250_000}[rng.Intn(2)] + rng.Int63n(100) },
		"tiny":      func() int64 { return rng.Int63n(100) },
		"singleton": func() int64 { return 777 },
	}
	for name, draw := range distributions {
		var h Histogram
		samples := make([]int64, 0, 4096)
		for i := 0; i < 4096; i++ {
			v := draw()
			h.Observe(v)
			samples = append(samples, v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, p := range []float64{1, 25, 50, 90, 95, 99, 99.9, 100} {
			idx := int(math.Ceil(p/100*float64(len(samples)))) - 1
			exact := samples[idx]
			got := h.Quantile(p)
			tol := math.Max(1, float64(exact)/float64(int64(1)<<(histSubBits+1)))
			if math.Abs(float64(got-exact)) > tol {
				t.Errorf("%s: Q%g = %d, exact %d (tolerance %.0f)", name, p, got, exact, tol)
			}
		}
	}
}

func TestHistogramBucketsIteration(t *testing.T) {
	var h Histogram
	h.Observe(3)
	h.Observe(3)
	h.Observe(500)
	var total int64
	prev := int64(-1)
	h.Buckets(func(value, count int64) {
		if value <= prev {
			t.Fatalf("bucket values not increasing: %d after %d", value, prev)
		}
		prev = value
		total += count
	})
	if total != 3 {
		t.Fatalf("bucket counts sum to %d, want 3", total)
	}
}

// TestHistogramMergeProperty is the fleet-merge correctness property:
// merging per-shard histograms must equal the histogram of the
// concatenated samples — exactly, not approximately. Counts are integer
// adds and the sums are float64 additions of integer values far below
// 2^53, so equality is exact in every field and at every quantile.
func TestHistogramMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var merged, direct Histogram
	for shard := 0; shard < 17; shard++ {
		var h Histogram
		n := rng.Intn(3000) // including empty shards
		for i := 0; i < n; i++ {
			v := int64(rng.ExpFloat64() * float64(1+rng.Intn(200_000)))
			h.Observe(v)
			direct.Observe(v)
		}
		merged.Merge(&h)
	}
	if merged.Total() != direct.Total() || merged.Sum() != direct.Sum() || merged.Max() != direct.Max() {
		t.Fatalf("merged total/sum/max = %d/%g/%d, direct = %d/%g/%d",
			merged.Total(), merged.Sum(), merged.Max(),
			direct.Total(), direct.Sum(), direct.Max())
	}
	for _, p := range []float64{1, 25, 50, 90, 95, 99, 99.9, 100} {
		if m, d := merged.Quantile(p), direct.Quantile(p); m != d {
			t.Fatalf("Q%g: merged %d, direct %d", p, m, d)
		}
	}
	type bucket struct{ v, c int64 }
	var mb, db []bucket
	merged.Buckets(func(v, c int64) { mb = append(mb, bucket{v, c}) })
	direct.Buckets(func(v, c int64) { db = append(db, bucket{v, c}) })
	if len(mb) != len(db) {
		t.Fatalf("bucket spans differ: %d vs %d", len(mb), len(db))
	}
	for i := range mb {
		if mb[i] != db[i] {
			t.Fatalf("bucket %d differs: %+v vs %+v", i, mb[i], db[i])
		}
	}
}

// TestHistogramMergeSteadyStateAlloc pins the fold hot path: once the
// destination spans the widest source, further merges allocate nothing.
func TestHistogramMergeSteadyStateAlloc(t *testing.T) {
	var src Histogram
	for v := int64(1); v < 1_000_000; v *= 3 {
		src.Observe(v)
	}
	var dst Histogram
	dst.Merge(&src) // grow once
	if n := testing.AllocsPerRun(100, func() { dst.Merge(&src) }); n > 0 {
		t.Fatalf("steady-state Merge allocates %v, want 0", n)
	}
}

// TestHistogramRisingSequenceAllocs pins the bucket array's growth by
// octaves: values that each land one bucket past the top reallocate it
// once per octave, not once per bucket, and the histogram reads the same
// as one that saw the values in falling order (sized once, at the first
// value).
func TestHistogramRisingSequenceAllocs(t *testing.T) {
	var vals []int64
	for v := int64(0); v < 1<<20; v += 1 + v/64 {
		vals = append(vals, v)
	}
	buckets := bucketOf(vals[len(vals)-1]) + 1
	var rising Histogram
	allocs := testing.AllocsPerRun(3, func() {
		rising = Histogram{}
		for _, v := range vals {
			rising.Observe(v)
		}
	})
	if limit := float64(buckets>>histSubBits + 1); allocs > limit {
		t.Errorf("%d rising values over %d buckets: %v allocations, want at most %v", len(vals), buckets, allocs, limit)
	}
	t.Logf("%d rising values over %d buckets: %v allocations", len(vals), buckets, allocs)
	var falling Histogram
	for i := len(vals) - 1; i >= 0; i-- {
		falling.Observe(vals[i])
	}
	type bucket struct{ v, c int64 }
	var rb, fb []bucket
	rising.Buckets(func(v, c int64) { rb = append(rb, bucket{v, c}) })
	falling.Buckets(func(v, c int64) { fb = append(fb, bucket{v, c}) })
	if !slices.Equal(rb, fb) || rising.Quantile(99) != falling.Quantile(99) || rising.Total() != falling.Total() {
		t.Fatalf("rising and falling orders differ: %d vs %d buckets", len(rb), len(fb))
	}
}

// TestHistogramReset pins Reset: the histogram empties but keeps its
// bucket capacity, so a reused accumulator stays allocation-free.
func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(12345)
	h.Reset()
	if h.Total() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(50) != 0 {
		t.Fatal("Reset left state behind")
	}
	if n := testing.AllocsPerRun(10, func() { h.Observe(12345) }); n > 0 {
		t.Fatalf("Observe after Reset allocates %v, want 0", n)
	}
}
