package telemetry

import "math/bits"

// Histogram is an exact log-bucketed histogram of non-negative int64
// values (latencies in microseconds throughout this repository). Every
// observation is counted — unlike a sampling reservoir there is no
// estimation error in the counts — and bucket boundaries follow an
// HDR-style layout: values below 2^(histSubBits+1) get exact unit
// buckets, and each further power-of-two octave is split into
// 2^histSubBits sub-buckets, bounding the relative quantile error by
// 2^-(histSubBits+1) (≈0.8% at histSubBits=6) at any scale.
//
// The zero value is an empty histogram ready to use. A copy shares the
// bucket array, so at most one of the two may keep observing or merging.
type Histogram struct {
	counts []int64
	total  int64
	sum    float64
	max    int64
}

// histSubBits sets the resolution: 64 sub-buckets per octave.
const histSubBits = 6

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 2<<histSubBits {
		return int(u)
	}
	shift := bits.Len64(u) - (histSubBits + 1)
	return (shift << histSubBits) + int(u>>uint(shift))
}

// bucketValue returns the representative value (midpoint) of bucket i.
func bucketValue(i int) int64 {
	if i < 2<<histSubBits {
		return int64(i)
	}
	shift := (i >> histSubBits) - 1
	rem := int64(i - shift<<histSubBits)
	low := rem << uint(shift)
	return low + int64(1)<<uint(shift)/2
}

// Observe counts one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bucketOf(v)
	if i >= len(h.counts) {
		h.grow(i + 1)
	}
	h.counts[i]++
	h.total++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

// grow extends the bucket array to n buckets. A reallocation rounds the
// capacity up to the end of the octave holding bucket n-1, so values
// rising one bucket at a time copy the array once per octave, each
// doubling the value range covered, rather than once per bucket. At most
// one octave's buckets go unused; that bound matters because a copied
// Histogram, such as a rolo.Report's, shares and keeps the whole array.
// Buckets past len stay zero, since every write lands below len, so
// reslicing exposes empty buckets and readers, which range over len
// only, see the same counts as with an exactly sized array.
func (h *Histogram) grow(n int) {
	if n > cap(h.counts) {
		const octave = 1 << histSubBits
		grown := make([]int64, n, (n+octave-1)&^(octave-1))
		copy(grown, h.counts)
		h.counts = grown
		return
	}
	h.counts = h.counts[:n]
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Max returns the largest observed value (exact, not bucketed).
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the value at the p-th percentile (0 < p <= 100): the
// representative value of the bucket holding the sample of rank
// ceil(p/100·total), matching the rank convention of a sorted-sample
// percentile. It returns 0 for an empty histogram or out-of-range p.
func (h *Histogram) Quantile(p float64) int64 {
	if h.total == 0 || p <= 0 || p > 100 {
		return 0
	}
	rank := int64(p / 100 * float64(h.total))
	if float64(rank)*100 < p*float64(h.total) {
		rank++ // ceil without float round-off at exact multiples
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketValue(i)
			if v > h.max {
				v = h.max // top bucket midpoint may exceed the true max
			}
			return v
		}
	}
	return h.max
}

// Merge adds src's counts into h bucket-by-bucket. Because both
// histograms share the same exact log-bucket layout, the result is
// identical to having observed every one of src's samples into h
// directly: counts, totals and maxima are exact, and sums are exact as
// long as they stay within float64's integer range (they do for
// microsecond latencies at any realistic fleet size). src is only read;
// merging a histogram into itself is not supported. Merge grows h's
// bucket array at most to src's length, so folding many histograms into
// one accumulator allocates only until the accumulator has seen the
// largest bucket index — the steady-state fold is allocation-free.
func (h *Histogram) Merge(src *Histogram) {
	if src.total == 0 {
		return
	}
	if len(src.counts) > len(h.counts) {
		h.grow(len(src.counts))
	}
	for i, c := range src.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.total += src.total
	h.sum += src.sum
	if src.max > h.max {
		h.max = src.max
	}
}

// Reset empties the histogram, keeping the bucket array's capacity so a
// reused accumulator does not re-grow.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.max = 0
}

// Buckets invokes fn for every non-empty bucket in increasing value
// order with the bucket's representative value and count.
func (h *Histogram) Buckets(fn func(value, count int64)) {
	for i, c := range h.counts {
		if c > 0 {
			fn(bucketValue(i), c)
		}
	}
}
