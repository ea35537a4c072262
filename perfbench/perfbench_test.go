package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/trace"
)

// tinyRun is a four-pair array at 2% scale replaying a short mixed
// workload: big enough to rotate, destage and spin disks, small enough
// for a unit test.
func tinyRun(t *testing.T, s rolo.Scheme) (rolo.Config, []trace.Record) {
	t.Helper()
	syn, err := trace.ParseSyntheticSpec("iops=60 write=0.8 duration=30s size=16K random=0.7 burst=0.3 recent=0.3 seed=5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scaledConfig(s, 0.02)
	cfg.Pairs = 4
	recs, err := syn.Generate(cfg.VolumeBytes())
	if err != nil {
		t.Fatal(err)
	}
	return cfg, recs
}

func TestAlteredReportFailsDigestCheck(t *testing.T) {
	cfg, recs := tinyRun(t, rolo.SchemeRoLoP)
	rep, err := rolo.Run(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	v := &verifier{want: []string{reportDigest(&rep)}}
	if !v.check(0, nil, func() string { return reportDigest(&rep) }) {
		t.Fatalf("unaltered report failed: %v", v.failures)
	}
	rep.MeanResponseMs += 1e-9
	if v.check(0, nil, func() string { return reportDigest(&rep) }) {
		t.Fatal("altered report passed the digest check")
	}
	if v.attempted != 2 || v.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", v.attempted, v.failed)
	}
}

func TestSelfConsistencyCheck(t *testing.T) {
	cfg, recs := tinyRun(t, rolo.SchemeRAID10)
	rep, err := rolo.Run(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(&rep, len(recs)); err != nil {
		t.Fatal(err)
	}
	if checkReport(&rep, len(recs)+1) == nil {
		t.Fatal("a lost record passed the check")
	}
	rep.ReadLatency.Count++
	if checkReport(&rep, len(recs)) == nil {
		t.Fatal("class counts that do not add up passed the check")
	}
}

// TestAssemblyMatchesRun holds the traced assembly to rolo.Run for every
// scheme, plain and with everything the observed workload turns on.
func TestAssemblyMatchesRun(t *testing.T) {
	for _, s := range rolo.Schemes {
		for _, observed := range []bool{false, true} {
			cfg, recs := tinyRun(t, s)
			if observed {
				cfg.Check = true
				cfg.Telemetry.ProbeInterval = 5 * sim.Second
			}
			var wantSink, gotSink telemetry.CountingSink
			cfg.Telemetry.Sink = &wantSink
			want, err := rolo.Run(cfg, recs)
			if err != nil {
				t.Fatalf("%v: rolo.Run: %v", s, err)
			}
			cfg.Telemetry.Sink = &gotSink
			got, st, err := assemble(cfg, recs, runProbe{spans: newSpanLog(), memstats: true})
			if err != nil {
				t.Fatalf("%v: assemble: %v", s, err)
			}
			wj, _ := json.Marshal(want)
			gj, _ := json.Marshal(got)
			if string(wj) != string(gj) {
				t.Errorf("%v observed=%v: reports differ\nrolo.Run: %s\nassemble: %s", s, observed, wj, gj)
			}
			if !reflect.DeepEqual(want.AllHist, got.AllHist) || !reflect.DeepEqual(want.WriteHist, got.WriteHist) {
				t.Errorf("%v: latency histograms differ", s)
			}
			if err := sameReport(&got, &want); err != nil {
				t.Error(err)
			}
			if wantSink.Total() != gotSink.Total() || st.emit.N != gotSink.Total() {
				t.Errorf("%v: events %d from rolo.Run, %d from assemble, %d timed", s, wantSink.Total(), gotSink.Total(), st.emit.N)
			}
			if st.submit.N != int64(len(recs)) || st.records != int64(len(recs)) || st.events == 0 {
				t.Errorf("%v: %d submits and %d events for %d records", s, st.submit.N, st.events, len(recs))
			}
		}
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 2 * ms, End: 5 * ms}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 7 * ms, End: 8 * ms},
		{ID: 5, Parent: 4, Name: "d", Start: 7 * ms, End: 8 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{5 * ms, 2 * ms, 3 * ms, 0, 1 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	if v, ok := percentile(samples(1000), 99); !ok || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990 reported (10 beyond)", v, ok)
	}
	if _, ok := percentile(samples(999), 99); ok {
		t.Error("p99 of 999 samples reported with only 9 beyond it")
	}
	if v, ok := percentile(samples(20), 50); !ok || v != 10 {
		t.Errorf("p50 of 20 samples = %v, %v; want 10 reported", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"github.com/rolo-storage/rolo/internal/sim.(*Engine).siftDown"}, "sim"},
		{[]string{"slices.pdqsortCmpFunc[...]", "github.com/rolo-storage/rolo/internal/logspace.(*Space).CheckInvariants"}, "logspace"},
		{[]string{"compress/flate.(*compressor).deflate"}, "journal"},
		{[]string{"github.com/rolo-storage/rolo/internal/telemetry/journal.(*AsyncSink).Emit"}, "journal"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "github.com/rolo-storage/rolo/internal/disk.New"}, "gc"},
		{[]string{"time.runtimeNow", "main.(*timedController).Submit", "github.com/rolo-storage/rolo/internal/array.Replay"}, "other"},
		{[]string{"runtime.futex"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metrics and the
// declared ones in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		var names []string
		for _, d := range want {
			m, ok := got[d.Name]
			if !ok {
				t.Errorf("%s: %s declared but not printed", what, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s: %s printed in %s, declared in %s", what, d.Name, m.Unit, d.Unit)
			}
			names = append(names, d.Name)
		}
		sort.Strings(names)
		for n := range got {
			if i := sort.SearchStrings(names, n); i == len(names) || names[i] != n {
				t.Errorf("%s: %s printed but not declared", what, n)
			}
		}
	}
	w, _ := lookupWorkload("fleet")
	w.shards = 10
	e2e := endToEnd(w, 0, time.Nanosecond, t.TempDir(), &verifier{})
	check("end_to_end", e2e.Metrics, decl.EndToEnd)
	layer := layerMetrics(&passAcc{}, 0, runtimeCPU{}, runtimeCPU{}, map[string]float64{}, 0)
	layer["trace_overhead"] = metric{1, "ratio"}
	check("per_layer", layer, decl.PerLayer)
}

// TestTracedFleetMatchesFleetRun drives the concurrent traced fleet
// iteration (run it with -race) and holds it to fleet.Run.
func TestTracedFleetMatchesFleetRun(t *testing.T) {
	w := workload{name: "fleet", shards: 12}
	it, err := w.setup(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runFleet(it.spec)
	if err != nil {
		t.Fatal(err)
	}
	acc := &passAcc{spans: newSpanLog()}
	v := &verifier{}
	tracedFleetIteration(w, 0, &ref, acc, v)
	if v.failed != 0 || v.attempted != 1 {
		t.Fatalf("attempted %d failed %d: %v", v.attempted, v.failed, v.failures)
	}
	shards := 0
	for _, s := range acc.spans.spans {
		if s.Name == "fleet.shard" {
			shards++
		}
	}
	if shards != 12 || len(acc.shardMs) != 12 || acc.fold.N != 12 || acc.requests != ref.Requests {
		t.Fatalf("%d shard spans, %d shard times, %d folds, %d requests (fleet.Run %d)",
			shards, len(acc.shardMs), acc.fold.N, acc.requests, ref.Requests)
	}
}
