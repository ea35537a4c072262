package trace

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"github.com/rolo-storage/rolo/internal/sim"
)

// referenceGenerate is the two-slice generator Generate replaced: it
// collects every arrival time into a []sim.Time, then copies each into a
// second []Record while drawing the record's fields. Generate must
// reproduce it record for record.
func referenceGenerate(c Synthetic, volumeBytes int64) []Record {
	rng := rand.New(rand.NewSource(c.Seed))
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

	arrivals := referenceArrivalTimes(c, rng)
	recs := make([]Record, 0, len(arrivals))
	seqNext := int64(-1)
	const recentRing = 512
	recent := make([]Record, 0, recentRing)
	recentHead := 0
	for _, at := range arrivals {
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
			w := Record{At: at, Op: Write, Offset: off, Size: size}
			if len(recent) < recentRing {
				recent = append(recent, w)
			} else {
				recent[recentHead] = w
				recentHead = (recentHead + 1) % recentRing
			}
			recs = append(recs, w)
			continue
		}
		if len(recent) > 0 && rng.Float64() < c.RecentReadFrac {
			w := recent[rng.Intn(len(recent))]
			recs = append(recs, Record{At: at, Op: Read, Offset: w.Offset, Size: w.Size})
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
		recs = append(recs, Record{At: at, Op: Read, Offset: readBase + off, Size: size})
	}
	return recs
}

func referenceArrivalTimes(c Synthetic, rng *rand.Rand) []sim.Time {
	var out []sim.Time
	if c.Burstiness == 0 && (c.DutyCycle == 0 || c.DutyCycle == 1) {
		t := 0.0
		dur := c.Duration.Seconds()
		for {
			t += rng.ExpFloat64() / c.IOPS
			if t >= dur {
				break
			}
			out = append(out, sim.FromSeconds(t))
		}
		return out
	}
	var duty, onRate, onDur float64
	if c.DutyCycle > 0 {
		duty = c.DutyCycle
		onRate = c.IOPS
		onDur = 10.0
		if c.OnPeriod > 0 {
			onDur = c.OnPeriod.Seconds()
		}
	} else {
		duty = 1 - 0.9*c.Burstiness
		onRate = c.IOPS / duty
		onDur = 2.0
	}
	offDur := onDur * (1 - duty) / duty
	t := 0.0
	dur := c.Duration.Seconds()
	on := true
	phaseEnd := onDur
	for t < dur {
		if on {
			next := t + rng.ExpFloat64()/onRate
			if next >= phaseEnd {
				t = phaseEnd
				on = false
				phaseEnd = t + offDur
				continue
			}
			t = next
			if t < dur {
				out = append(out, sim.FromSeconds(t))
			}
		} else {
			t = phaseEnd
			on = true
			phaseEnd = t + onDur
		}
	}
	return out
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// TestGenerateMatchesReference pins that the one-pass generator draws the
// same records as the two-slice one on every calibrated profile and on
// Poisson, burst and duty-cycle specs, and that its presize covered the
// arrival count without growing.
func TestGenerateMatchesReference(t *testing.T) {
	type tc struct {
		name string
		syn  Synthetic
	}
	var cases []tc
	for _, name := range ProfileNames() {
		syn, err := Profiles[name].Synthetic(0.02)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{name, syn})
	}
	for _, spec := range []string{
		"iops=300 write=0.5 duration=2m size=16K recent=0.2 zipf=1.4 hot=0.6 seed=9",
		"iops=80 write=0.7 duration=5m burst=0.85 rws=64M disjoint wws=1G seed=4",
		"iops=150 write=0.9 duration=10m duty=0.05 on=3s recent=0.5 seed=12",
		"iops=60 duration=5s duty=0.01 seed=2", // the window ends inside the first ON phase
	} {
		syn, err := ParseSyntheticSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{spec, syn})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.syn.Generate(testVolume)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, got, referenceGenerate(c.syn, testVolume))
			if len(got) == 0 {
				t.Fatal("empty trace compares nothing")
			}
			if cap(got) != c.syn.presize() {
				t.Errorf("cap %d after %d records, presize %d: the estimate fell short",
					cap(got), len(got), c.syn.presize())
			}
		})
	}
	// An undersized slice only grows: the records stay the same.
	syn, _ := Profiles["proj_0"].Synthetic(0.02)
	rng := rand.New(rand.NewSource(syn.Seed))
	recs := syn.arrivals(rng, make([]Record, 0, 1))
	syn.fill(rng, recs, testVolume)
	sameRecords(t, recs, referenceGenerate(syn, testVolume))
}

// TestGenerateAllocations pins the one-pass materialization: a fixed
// number of allocations whatever the record count, and no bytes beyond
// the returned slice but a fixed bound (the generator state and the
// recent-write ring).
func TestGenerateAllocations(t *testing.T) {
	const fixedBytes = 16 << 10
	var allocs []float64
	for _, n := range []float64{1e4, 1e6} {
		syn := Synthetic{
			Duration: sim.FromSeconds(n / 200), IOPS: 200, WriteRatio: 0.5,
			AvgReqBytes: 16 << 10, RandomFrac: 0.7, ReadZipfS: 1.3,
			RecentReadFrac: 0.3, Seed: 3,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err := syn.Generate(testVolume)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		limit := uint64(cap(recs))*uint64(unsafe.Sizeof(Record{})) + fixedBytes
		got := after.TotalAlloc - before.TotalAlloc
		if got > limit {
			t.Errorf("%d records (cap %d): %d bytes allocated, want at most %d", len(recs), cap(recs), got, limit)
		}
		allocs = append(allocs, testing.AllocsPerRun(3, func() {
			if _, err := syn.Generate(testVolume); err != nil {
				t.Fatal(err)
			}
		}))
		t.Logf("%d records (cap %d): %d bytes, %v allocations", len(recs), cap(recs), got, allocs[len(allocs)-1])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("allocations grow with the record count: %v for 10k, %v for 1M", allocs[0], allocs[1])
	}
}
