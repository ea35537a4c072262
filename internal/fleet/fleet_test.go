package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/trace"
)

// testSpec is a small fleet that still exercises every scheme and real
// per-shard workload divergence, sized to keep the race detector happy.
func testSpec(t testing.TB, shards int) Spec {
	t.Helper()
	base, err := trace.ParseSyntheticSpec("iops=50 write=0.9 duration=5s size=16K random=0.7 seed=11")
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSpec()
	s.Shards = shards
	s.Scale = 0.01
	s.Base = base
	s.WorstK = 4
	return s
}

// TestFleetDeterminism is the acceptance test for the merge discipline:
// the same spec must produce byte-identical rendered output and JSON at
// every job count, including the serial runner.
func TestFleetDeterminism(t *testing.T) {
	spec := testSpec(t, 13)
	render := func(pool Pool) (string, string) {
		rep, err := Run(spec, pool)
		if err != nil {
			t.Fatalf("fleet run: %v", err)
		}
		if rep.Requests == 0 || rep.P99ResponseMs <= 0 || rep.P99ResponseMs < rep.MeanResponseMs/10 {
			t.Fatalf("implausible cluster stats: %+v", rep)
		}
		if len(rep.Worst) != spec.WorstK || len(rep.Schemes) != len(rolo.Schemes) {
			t.Fatalf("digest sizes: worst %d schemes %d", len(rep.Worst), len(rep.Schemes))
		}
		var txt bytes.Buffer
		if err := rep.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return txt.String(), string(js)
	}
	serialTxt, serialJSON := render(nil)
	if !strings.Contains(serialTxt, "fleet: 13 shards") {
		t.Fatalf("unexpected header in:\n%s", serialTxt)
	}
	for _, jobs := range []int{2, 7} {
		txt, js := render(NewPool(jobs))
		if txt != serialTxt {
			t.Errorf("-jobs %d text differs from serial:\n--- serial ---\n%s--- jobs=%d ---\n%s",
				jobs, serialTxt, jobs, txt)
		}
		if js != serialJSON {
			t.Errorf("-jobs %d JSON differs from serial", jobs)
		}
	}
}

// TestRunWindowedFoldsInOrder pins the reorder window: whatever order
// shards finish in, folds happen strictly in shard-index order and every
// shard folds exactly once.
func TestRunWindowedFoldsInOrder(t *testing.T) {
	const n = 100
	var folded []int
	err := runWindowed(n, NewPool(4),
		func(i int) (rolo.Report, error) {
			return rolo.Report{Requests: int64(i)}, nil
		},
		func(i int, rep *rolo.Report) {
			if rep.Requests != int64(i) {
				t.Errorf("shard %d folded with report of shard %d", i, rep.Requests)
			}
			folded = append(folded, i)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(folded) != n {
		t.Fatalf("folded %d shards, want %d", len(folded), n)
	}
	for i, got := range folded {
		if got != i {
			t.Fatalf("fold %d was shard %d — out of order", i, got)
		}
	}
}

// TestRunWindowedLowestIndexError pins the error contract: with several
// shards failing, the runner reports the lowest failing index — the same
// error a serial loop would have returned — and stops folding there.
func TestRunWindowedLowestIndexError(t *testing.T) {
	const n = 64
	fail := map[int]bool{9: true, 30: true, 31: true}
	lastFold := -1
	err := runWindowed(n, NewPool(8),
		func(i int) (rolo.Report, error) {
			if fail[i] {
				return rolo.Report{}, fmt.Errorf("shard %d boom", i)
			}
			return rolo.Report{}, nil
		},
		func(i int, _ *rolo.Report) { lastFold = i })
	if err == nil || !strings.Contains(err.Error(), "shard 9 boom") {
		t.Fatalf("error = %v, want shard 9's", err)
	}
	if lastFold != 8 {
		t.Fatalf("last fold = %d, want 8 (folding stops at the failing shard)", lastFold)
	}
}

// TestRunShardJournal checks the optional per-shard rotated journal: the
// shard directory appears with at least one segment and a manifest.
func TestRunShardJournal(t *testing.T) {
	spec := testSpec(t, 2)
	spec.Journal.Dir = t.TempDir()
	if _, err := Run(spec, nil); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < spec.Shards; shard++ {
		dir := fmt.Sprintf("%s/shard-%05d", spec.Journal.Dir, shard)
		m, err := readManifest(t, dir)
		if err != nil {
			t.Fatalf("shard %d manifest: %v", shard, err)
		}
		if m == 0 {
			t.Fatalf("shard %d journal empty", shard)
		}
	}
}

// TestClusterFoldZeroAlloc pins the streaming-merge hot path: folding a
// report into a warmed accumulator performs no allocations, so merging a
// fleet of any size costs no per-shard garbage.
func TestClusterFoldZeroAlloc(t *testing.T) {
	spec := testSpec(t, 2)
	reps := make([]rolo.Report, spec.Shards)
	for i := range reps {
		rep, err := spec.RunShard(i)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	c := NewCluster(4)
	for i := range reps {
		c.Fold(i, &reps[i]) // warm: histograms grow to final bucket span
	}
	shard := spec.Shards
	if n := testing.AllocsPerRun(100, func() {
		for i := range reps {
			c.Fold(shard, &reps[i])
			shard++
		}
	}); n > 0 {
		t.Fatalf("Fold allocates %v per warmed call, want 0", n)
	}
}

// TestWorstDigest pins the fixed-capacity worst-K table: descending P99,
// ties broken toward the lower shard index, overflow dropped.
func TestWorstDigest(t *testing.T) {
	c := NewCluster(3)
	for i, p99 := range []float64{5, 9, 7, 9, 1, 8} {
		c.foldWorst(ShardDigest{Shard: i, P99Ms: p99})
	}
	got := c.Report().Worst
	want := []struct {
		shard int
		p99   float64
	}{{1, 9}, {3, 9}, {5, 8}}
	if len(got) != len(want) {
		t.Fatalf("worst table has %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Shard != w.shard || got[i].P99Ms != w.p99 {
			t.Fatalf("worst[%d] = shard %d p99 %g, want shard %d p99 %g",
				i, got[i].Shard, got[i].P99Ms, w.shard, w.p99)
		}
	}
}

// TestSpecValidate covers the range checks every spec, whatever set its
// fields, must pass before a shard runs.
func TestSpecValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		mod  func(*Spec)
		want string // substring of the error
	}{
		{"journal options without a directory", func(s *Spec) { s.Journal.Compress = true }, "journal"},
		{"empty scheme list", func(s *Spec) { s.Schemes = nil }, "no schemes"},
		{"zero shards", func(s *Spec) { s.Shards = 0 }, "shard count"},
		{"IOPS spread 1.5", func(s *Spec) { s.Rule.IOPSSpread = 1.5 }, "IOPS spread"},
		{"zero worst-K", func(s *Spec) { s.WorstK = 0 }, "worst-K"},
	} {
		s := DefaultSpec()
		c.mod(&s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	s := DefaultSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("DefaultSpec rejected: %v", err)
	}
}

// TestParseSchemeList: "all" expands to the five schemes in paper order,
// and an unknown name is refused.
func TestParseSchemeList(t *testing.T) {
	all, err := ParseSchemeList("all")
	if err != nil {
		t.Fatal(err)
	}
	want := []rolo.Scheme{rolo.SchemeRAID10, rolo.SchemeGRAID, rolo.SchemeRoLoP, rolo.SchemeRoLoR, rolo.SchemeRoLoE}
	if fmt.Sprint(all) != fmt.Sprint(want) {
		t.Fatalf("all = %v, want %v", all, want)
	}
	if _, err := ParseSchemeList("RoLo-P,RAID7"); err == nil {
		t.Fatal("RAID7 accepted")
	}
}

// readManifest returns the number of journal files in a shard directory.
func readManifest(t *testing.T, dir string) (int, error) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	return len(entries), nil
}
