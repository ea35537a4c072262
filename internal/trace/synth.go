package trace

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/rolo-storage/rolo/internal/sim"
)

// BlockAlign is the alignment of generated offsets and sizes.
const BlockAlign = 4096

// Synthetic describes a parameterized workload. All randomness is drawn
// from a generator seeded with Seed, so generation is deterministic.
type Synthetic struct {
	// Duration of the workload.
	Duration sim.Time
	// IOPS is the long-run average request arrival rate.
	IOPS float64
	// WriteRatio is the fraction of requests that are writes, in [0,1].
	WriteRatio float64
	// AvgReqBytes is the mean request size. Sizes are drawn from a
	// two-point distribution (2/3 at half the mean, 1/3 at twice the
	// mean) aligned to BlockAlign, preserving the mean.
	AvgReqBytes int64
	// FixedSize, when true, makes every request exactly AvgReqBytes.
	FixedSize bool
	// RandomFrac is the probability that a write starts a new random run
	// rather than continuing sequentially. The paper's Section II
	// micro-benchmarks use 0.7.
	RandomFrac float64
	// Burstiness in [0,1): 0 is a Poisson process; larger values
	// concentrate the same average rate into ON periods of an ON/OFF
	// modulated Poisson process (duty cycle 1-0.9·Burstiness).
	Burstiness float64
	// DutyCycle, when non-zero, sets the ON fraction of the ON/OFF
	// process directly (overriding Burstiness) and reinterprets IOPS as
	// the ON-period arrival rate. This models the MSR traces, whose
	// published IOPS are burst rates: the week-long window is mostly
	// idle. Must be in (0,1].
	DutyCycle float64
	// OnPeriod is the fixed ON-phase length for DutyCycle mode
	// (default 10 s).
	OnPeriod sim.Time
	// WriteWorkingSetBytes bounds the region random writes fall in
	// (0 means the whole volume). Overwrites within the set are what
	// makes destaging cheaper than raw write volume.
	WriteWorkingSetBytes int64
	// ReadWorkingSetBytes bounds the region reads fall in (0 = volume).
	ReadWorkingSetBytes int64
	// ReadWSDisjoint places the read working set after the write working
	// set (when the volume allows) instead of overlapping it, modeling
	// workloads whose reads touch cold data rather than recent writes.
	ReadWSDisjoint bool
	// ReadZipfS is the Zipf skew (>1) of read popularity; 0 disables
	// skew (uniform reads).
	ReadZipfS float64
	// ReadHotFrac is the probability a (non-recent) read comes from the
	// Zipf-popular set rather than uniformly from the working set. Zero
	// means 1 (all reads Zipf) when ReadZipfS is set. The mixture lets
	// hit rates land anywhere between the cold floor and the hot ceiling.
	ReadHotFrac float64
	// RecentReadFrac is the probability that a read targets one of the
	// most recently written extents (read-after-write temporal locality).
	// Such reads are absorbed by any scheme that logs or caches recent
	// writes.
	RecentReadFrac float64
	// Seed for the deterministic random source.
	Seed int64
}

// maxArrivals bounds a workload's expected arrival count: 2^26 records,
// 2 GiB. A runaway rate then fails in Validate instead of materializing
// records until memory runs out.
const maxArrivals = 1 << 26

// Validate reports configuration errors, among them an expected arrival
// count above 2^26. Every range test is written to fail on NaN.
func (c Synthetic) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("trace: non-positive duration %v", c.Duration)
	case math.IsNaN(c.IOPS) || math.IsInf(c.IOPS, 0):
		return fmt.Errorf("trace: non-finite IOPS %g", c.IOPS)
	case c.IOPS <= 0:
		return fmt.Errorf("trace: non-positive IOPS %g", c.IOPS)
	case !inUnit(c.WriteRatio):
		return fmt.Errorf("trace: write ratio %g outside [0,1]", c.WriteRatio)
	case c.AvgReqBytes < BlockAlign:
		return fmt.Errorf("trace: average request %d below block size %d", c.AvgReqBytes, BlockAlign)
	case !inUnit(c.RandomFrac):
		return fmt.Errorf("trace: random fraction %g outside [0,1]", c.RandomFrac)
	case !(c.Burstiness >= 0 && c.Burstiness < 1):
		return fmt.Errorf("trace: burstiness %g outside [0,1)", c.Burstiness)
	case !inUnit(c.DutyCycle):
		return fmt.Errorf("trace: duty cycle %g outside [0,1]", c.DutyCycle)
	case c.OnPeriod < 0:
		return fmt.Errorf("trace: negative ON period %v", c.OnPeriod)
	case c.ReadZipfS != 0 && !(c.ReadZipfS > 1):
		return fmt.Errorf("trace: Zipf s must exceed 1, got %g", c.ReadZipfS)
	case !inUnit(c.RecentReadFrac):
		return fmt.Errorf("trace: recent-read fraction %g outside [0,1]", c.RecentReadFrac)
	case !inUnit(c.ReadHotFrac):
		return fmt.Errorf("trace: hot-read fraction %g outside [0,1]", c.ReadHotFrac)
	case c.expectedArrivals() > maxArrivals:
		return fmt.Errorf("trace: %.3g expected arrivals exceed the bound of %d", c.expectedArrivals(), maxArrivals)
	}
	return nil
}

// inUnit reports whether v lies in [0, 1]; NaN does not.
func inUnit(v float64) bool { return v >= 0 && v <= 1 }

func alignDown(v int64) int64 {
	v -= v % BlockAlign
	if v < BlockAlign {
		v = BlockAlign
	}
	return v
}

// Generate materializes the workload over a volume of volumeBytes bytes.
// Records are returned in arrival order.
//
// Every arrival time is drawn before any record field, from one generator,
// so the records are built in two passes over one slice: arrivals appends
// the times, then fill draws each record's operation, offset and size in
// place. The slice is presized from the expected arrival count; the
// estimate sets only its capacity, never the records.
func (c Synthetic) Generate(volumeBytes int64) ([]Record, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if volumeBytes < 2*BlockAlign {
		return nil, fmt.Errorf("trace: volume of %d bytes too small", volumeBytes)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	recs := c.arrivals(rng, make([]Record, 0, c.presize()))
	c.fill(rng, recs, volumeBytes)
	return recs, nil
}

// presize returns the record capacity Generate allocates: the expected
// arrival count plus four standard deviations of its Poisson spread, so
// the slice almost never grows and wastes at most the margin.
func (c Synthetic) presize() int {
	n := c.expectedArrivals()
	return int(n + 4*math.Sqrt(n) + 16)
}

// fill draws the operation, offset and size of every record in recs, in
// arrival order, leaving At as arrivals set it.
func (c Synthetic) fill(rng *rand.Rand, recs []Record, volumeBytes int64) {
	writeWS := c.WriteWorkingSetBytes
	if writeWS <= 0 || writeWS > volumeBytes {
		writeWS = volumeBytes
	}
	readWS := c.ReadWorkingSetBytes
	if readWS <= 0 || readWS > volumeBytes {
		readWS = volumeBytes
	}
	var readBase int64
	if c.ReadWSDisjoint {
		readBase = writeWS
		if readBase+readWS > volumeBytes {
			readBase = volumeBytes - readWS
		}
		if readBase < 0 {
			readBase = 0
		}
		readBase -= readBase % BlockAlign
	}
	var zipf *rand.Zipf
	readBlocks := uint64(readWS / BlockAlign)
	if c.ReadZipfS > 1 && readBlocks > 1 {
		zipf = rand.NewZipf(rng, c.ReadZipfS, 1, readBlocks-1)
	}

	seqNext := int64(-1)
	// Ring of the indices of recent writes, for read-after-write locality.
	const recentRing = 512
	recent := make([]int, 0, recentRing)
	recentHead := 0
	for i := range recs {
		r := &recs[i]
		isWrite := rng.Float64() < c.WriteRatio
		size := c.drawSize(rng)
		var off int64
		if isWrite {
			if seqNext >= 0 && rng.Float64() >= c.RandomFrac && seqNext+size <= writeWS {
				off = seqNext
			} else {
				off = alignedUniform(rng, writeWS-size)
			}
			seqNext = off + size
			if len(recent) < recentRing {
				recent = append(recent, i)
			} else {
				recent[recentHead] = i
				recentHead = (recentHead + 1) % recentRing
			}
			r.Op, r.Offset, r.Size = Write, off, size
			continue
		}
		if len(recent) > 0 && rng.Float64() < c.RecentReadFrac {
			// Re-read a recently written extent.
			w := recs[recent[rng.Intn(len(recent))]]
			r.Op, r.Offset, r.Size = Read, w.Offset, w.Size
			continue
		}
		hotFrac := c.ReadHotFrac
		if hotFrac == 0 {
			hotFrac = 1
		}
		if zipf != nil && rng.Float64() < hotFrac {
			off = int64(zipf.Uint64()) * BlockAlign
		} else {
			off = alignedUniform(rng, readWS-size)
		}
		if off+size > readWS {
			off = alignDown(readWS - size)
		}
		r.Op, r.Offset, r.Size = Read, readBase+off, size
	}
}

// phases describes the arrival process: Poisson at rate (onDur == 0), or
// ON/OFF-modulated Poisson whose ON phases of onDur seconds arrive at rate
// and alternate with OFF phases of offDur seconds, starting ON. In
// Burstiness mode the duty cycle shrinks with burstiness while the ON rate
// grows to preserve the average; in DutyCycle mode IOPS already is the ON
// rate. Phase lengths are fixed so the long-run rate converges quickly.
func (c Synthetic) phases() (rate, onDur, offDur float64) {
	switch {
	case c.Burstiness == 0 && (c.DutyCycle == 0 || c.DutyCycle == 1):
		return c.IOPS, 0, 0
	case c.DutyCycle > 0:
		onDur = 10.0
		if c.OnPeriod > 0 {
			onDur = c.OnPeriod.Seconds()
		}
		return c.IOPS, onDur, onDur * (1 - c.DutyCycle) / c.DutyCycle
	default:
		duty := 1 - 0.9*c.Burstiness
		return c.IOPS / duty, 2.0, 2.0 * (1 - duty) / duty
	}
}

// expectedArrivals returns the mean arrival count over the window: the ON
// rate times the ON time the window holds (all of it for Poisson).
func (c Synthetic) expectedArrivals() float64 {
	rate, onDur, offDur := c.phases()
	on := c.Duration.Seconds()
	if onDur > 0 {
		// Whole ON/OFF cycles, then a partial cycle that starts ON. The
		// OFF phase of a vanishing duty cycle is infinite.
		cycle := onDur + offDur
		full := math.Floor(on / cycle)
		rest := on
		if full > 0 {
			rest -= full * cycle
		}
		on = full*onDur + math.Min(rest, onDur)
	}
	return rate * on
}

// arrivals appends one record per arrival to recs, setting only At.
func (c Synthetic) arrivals(rng *rand.Rand, recs []Record) []Record {
	rate, onDur, offDur := c.phases()
	dur := c.Duration.Seconds()
	if onDur == 0 {
		t := 0.0
		for {
			t += rng.ExpFloat64() / rate
			if t >= dur {
				break
			}
			recs = append(recs, Record{At: sim.FromSeconds(t)})
		}
		return recs
	}
	t := 0.0
	on := true
	phaseEnd := onDur
	for t < dur {
		if on {
			next := t + rng.ExpFloat64()/rate
			if next >= phaseEnd {
				t = phaseEnd
				on = false
				phaseEnd = t + offDur
				continue
			}
			t = next
			if t < dur {
				recs = append(recs, Record{At: sim.FromSeconds(t)})
			}
		} else {
			t = phaseEnd
			on = true
			phaseEnd = t + onDur
		}
	}
	return recs
}

func (c Synthetic) drawSize(rng *rand.Rand) int64 {
	if c.FixedSize {
		return alignDown(c.AvgReqBytes)
	}
	// Two-point distribution over block-aligned sizes a < b with the
	// mixing probability solved so the mean is preserved exactly.
	a := alignNearest(c.AvgReqBytes / 2)
	b := alignNearest(2 * c.AvgReqBytes)
	if a >= b {
		return alignNearest(c.AvgReqBytes)
	}
	p := float64(b-c.AvgReqBytes) / float64(b-a)
	if rng.Float64() < p {
		return a
	}
	return b
}

func alignNearest(v int64) int64 {
	blocks := (v + BlockAlign/2) / BlockAlign
	if blocks < 1 {
		blocks = 1
	}
	return blocks * BlockAlign
}

func alignedUniform(rng *rand.Rand, maxStart int64) int64 {
	if maxStart <= 0 {
		return 0
	}
	blocks := maxStart/BlockAlign + 1
	return rng.Int63n(blocks) * BlockAlign
}

// Uniform70Random64K returns the paper's Section II micro-benchmark
// workload: 100 % writes of 64 KB, 70 % random, at the given request rate.
func Uniform70Random64K(iops float64, duration sim.Time, seed int64) Synthetic {
	return Synthetic{
		Duration:    duration,
		IOPS:        iops,
		WriteRatio:  1.0,
		AvgReqBytes: 64 << 10,
		FixedSize:   true,
		RandomFrac:  0.7,
		Seed:        seed,
	}
}

// ExpectedWriteBytes estimates the total bytes the workload writes, which
// sizing logic uses to pick logging capacities.
func (c Synthetic) ExpectedWriteBytes() int64 {
	return int64(math.Round(c.Duration.Seconds() * c.IOPS * c.WriteRatio * float64(c.AvgReqBytes)))
}
