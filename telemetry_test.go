package rolo

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/telemetry/journal"
	"github.com/rolo-storage/rolo/internal/trace"
)

// TestJournalDeterminism is the telemetry regression contract, for every
// scheme and for a RAM-cached array: two identical runs must produce
// byte-identical journals, journal event counts must agree with the
// Report counters, the journal's RequestDone events must reconcile with
// the report and the trace, and attaching a sink must not perturb the
// simulation at all.
func TestJournalDeterminism(t *testing.T) {
	type tcase struct {
		name       string
		cfg        Config
		writeRatio float64
	}
	var cases []tcase
	for _, s := range Schemes {
		cases = append(cases, tcase{s.String(), smallConfig(s), 0.95})
	}
	cached := smallConfig(SchemeRoLoP)
	cached.RAMCacheBlocks = 1 << 14
	cases = append(cases, tcase{"RoLo-P+RAMCache", cached, 0.5})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			recs := writeHeavy(t, cfg, 100, 2*sim.Minute, tc.writeRatio)

			runOnce := func() (Report, []byte, *telemetry.CountingSink) {
				var buf bytes.Buffer
				var counts telemetry.CountingSink
				c := cfg
				c.Telemetry.Sink = telemetry.TeeSink{telemetry.NewJSONLSink(&buf), &counts}
				c.Telemetry.ProbeInterval = 10 * sim.Second
				rep, err := Run(c, recs)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				return rep, buf.Bytes(), &counts
			}

			rep1, j1, counts := runOnce()
			_, j2, _ := runOnce()
			if !bytes.Equal(j1, j2) {
				t.Fatalf("identical runs produced different journals (%d vs %d bytes)", len(j1), len(j2))
			}
			if len(j1) == 0 {
				t.Fatal("journal is empty")
			}

			events, err := telemetry.ParseJournal(bytes.NewReader(j1))
			if err != nil {
				t.Fatalf("ParseJournal: %v", err)
			}
			var prev sim.Time
			for i, ev := range events {
				if ev.At < prev {
					t.Fatalf("event %d at %v precedes %v: journal not monotonic", i, ev.At, prev)
				}
				prev = ev.At
			}

			if got := counts.Count(telemetry.KindRotation); got != int64(rep1.Rotations) {
				t.Errorf("journal rotations = %d, report says %d", got, rep1.Rotations)
			}
			if got := counts.Count(telemetry.KindSpinUp); got != int64(rep1.SpinCycles) {
				t.Errorf("journal spin-ups = %d, report says %d spin cycles", got, rep1.SpinCycles)
			}
			if rep1.ProbeSamples == 0 {
				t.Error("ProbeSamples = 0 with probes enabled")
			}
			if got := counts.Count(telemetry.KindProbe); got != int64(rep1.ProbeSamples) {
				t.Errorf("journal probes = %d, report says %d samples", got, rep1.ProbeSamples)
			}
			if cfg.RAMCacheBlocks > 0 && rep1.RAMHitRate == 0 {
				t.Error("RAM cache served no read; its completion path went untested")
			}
			reconcileRequests(t, events, rep1, recs)

			// A run with no sink and no probes must report exactly the same
			// results (telemetry is observation, not behavior).
			plain, err := Run(cfg, recs)
			if err != nil {
				t.Fatalf("Run without telemetry: %v", err)
			}
			withSink := rep1
			withSink.ProbeSamples = 0
			withSink.PeakLogOccupancy = 0
			withSink.PeakDestageBacklogBytes = 0
			withSink.PeakSpinningDisks = 0
			if !reflect.DeepEqual(plain, withSink) {
				t.Errorf("telemetry perturbed the report:\nwith:    %+v\nwithout: %+v", withSink, plain)
			}
		})
	}
}

// reconcileRequests checks a journal's RequestDone events, one per
// request, against the run's report and trace: the request count and
// per-class counts, the bytes, the arrival times (at - lat_us) and the
// latency histograms, bucket for bucket.
func reconcileRequests(t *testing.T, events []telemetry.Event, rep Report, recs []trace.Record) {
	t.Helper()
	var all, reads, writes telemetry.Histogram
	var bytesDone int64
	var arrivals []sim.Time
	for _, ev := range events {
		if ev.Kind != telemetry.KindRequestDone {
			continue
		}
		bytesDone += ev.Bytes
		arrivals = append(arrivals, ev.At-sim.Time(ev.LatencyUs))
		all.Observe(ev.LatencyUs)
		if ev.Write {
			writes.Observe(ev.LatencyUs)
		} else {
			reads.Observe(ev.LatencyUs)
		}
	}
	if got := int64(len(arrivals)); got != rep.Requests {
		t.Errorf("journal completions = %d, report says %d requests", got, rep.Requests)
	}
	if reads.Total() != rep.ReadLatency.Count || writes.Total() != rep.WriteLatency.Count {
		t.Errorf("journal completions %d reads / %d writes, report says %d / %d",
			reads.Total(), writes.Total(), rep.ReadLatency.Count, rep.WriteLatency.Count)
	}

	var size int64
	want := make([]sim.Time, len(recs))
	for i, r := range recs {
		size += r.Size
		want[i] = r.At
	}
	if bytesDone != size {
		t.Errorf("journal completions carry %d bytes, the trace %d", bytesDone, size)
	}
	slices.Sort(arrivals)
	slices.Sort(want)
	if !slices.Equal(arrivals, want) {
		t.Errorf("journal arrival times (at - lat_us) differ from the trace's")
	}

	for _, h := range []struct {
		class     string
		got, want *telemetry.Histogram
	}{{"all", &all, &rep.AllHist}, {"read", &reads, &rep.ReadHist}, {"write", &writes, &rep.WriteHist}} {
		if h.got.Total() != h.want.Total() || h.got.Sum() != h.want.Sum() || h.got.Max() != h.want.Max() ||
			!slices.Equal(histBuckets(h.got), histBuckets(h.want)) {
			t.Errorf("%s latency histogram rebuilt from the journal differs from the report's", h.class)
		}
	}
}

// histBuckets lists a histogram's non-empty buckets as (value, count)
// pairs.
func histBuckets(h *telemetry.Histogram) [][2]int64 {
	var out [][2]int64
	h.Buckets(func(value, count int64) { out = append(out, [2]int64{value, count}) })
	return out
}

// TestRotatedJournalByteEquivalence is the async pipeline's acceptance
// gate: for a fixed seed, a run journaled through the async sink into
// rotated gzip-compressed segments must reproduce, after decompression
// and concatenation, exactly the bytes of the synchronous single-file
// journal — and under the blocking policy nothing may be dropped.
func TestRotatedJournalByteEquivalence(t *testing.T) {
	cfg := smallConfig(SchemeRoLoP)
	recs := writeHeavy(t, cfg, 100, 2*sim.Minute, 0.95)

	var single bytes.Buffer
	syncCfg := cfg
	syncCfg.Telemetry.Sink = telemetry.NewJSONLSink(&single)
	syncCfg.Telemetry.ProbeInterval = 10 * sim.Second
	if _, err := Run(syncCfg, recs); err != nil {
		t.Fatalf("synchronous run: %v", err)
	}
	if single.Len() == 0 {
		t.Fatal("synchronous journal is empty")
	}

	dir := t.TempDir()
	w, err := journal.NewRotatingWriter(journal.RotateConfig{
		Dir: dir, SegmentBytes: 8 << 10, Compress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A small ring forces the simulation goroutine through the
	// backpressure path, not just the happy path.
	sink := journal.NewAsyncSink(w, journal.AsyncConfig{Buffer: 64, Policy: journal.PolicyBlock})
	asyncCfg := cfg
	asyncCfg.Telemetry.Sink = sink
	asyncCfg.Telemetry.ProbeInterval = 10 * sim.Second
	if _, err := Run(asyncCfg, recs); err != nil {
		t.Fatalf("async run: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("closing async sink: %v", err)
	}
	if st := sink.Stats(); st.Dropped != 0 {
		t.Fatalf("blocking policy dropped %d events", st.Dropped)
	}

	m, err := journal.Verify(dir)
	if err != nil {
		t.Fatalf("manifest verification: %v", err)
	}
	if len(m.Segments) < 3 {
		t.Fatalf("run produced only %d segments; rotation not exercised", len(m.Segments))
	}

	var rotated bytes.Buffer
	r, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var scratch []byte
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		scratch = telemetry.AppendEvent(scratch[:0], ev)
		rotated.Write(scratch)
	}
	if !bytes.Equal(single.Bytes(), rotated.Bytes()) {
		t.Fatalf("rotated journal diverges from single-file baseline (%d vs %d bytes)",
			rotated.Len(), single.Len())
	}
}

// TestPerDiskStateSeconds checks the per-disk state accounting sums back
// to the aggregate StateSeconds map for every scheme.
func TestPerDiskStateSeconds(t *testing.T) {
	for _, s := range []Scheme{SchemeRAID10, SchemeGRAID, SchemeRoLoP, SchemeRoLoE} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := smallConfig(s)
			recs := writeHeavy(t, cfg, 50, sim.Minute, 0.95)
			rep, err := Run(cfg, recs)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			wantDisks := 2 * cfg.Pairs
			if s == SchemeGRAID {
				wantDisks++ // dedicated log disk
			}
			if len(rep.DiskStateSeconds) != wantDisks {
				t.Fatalf("DiskStateSeconds has %d entries, want %d", len(rep.DiskStateSeconds), wantDisks)
			}
			sums := make(map[string]float64)
			for _, per := range rep.DiskStateSeconds {
				for st, sec := range per {
					sums[st] += sec
				}
			}
			if len(sums) != len(rep.StateSeconds) {
				t.Fatalf("per-disk states %v, aggregate states %v", sums, rep.StateSeconds)
			}
			for st, want := range rep.StateSeconds {
				if got := sums[st]; math.Abs(got-want) > 1e-6*math.Max(1, want) {
					t.Errorf("state %s: per-disk sum %.9f, aggregate %.9f", st, got, want)
				}
			}
		})
	}
}
