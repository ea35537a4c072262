package experiments

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/telemetry/journal"
)

// leafExperiments returns every registered experiment whose simulations
// are leaves. Recovery assembles its own controllers, and the fleet's
// shards run through fleet.Run.
func leafExperiments() []Experiment {
	var list []Experiment
	for _, e := range All() {
		switch e.ID {
		case "recovery", "fleet":
		default:
			list = append(list, e)
		}
	}
	return list
}

// sweepLeaves runs the leaf experiments under a fresh pool of jobs slots.
// It returns the pool's memoized leaves with their reports, and how many
// simulations the pool served.
func sweepLeaves(t *testing.T, o Options, jobs int) (map[leaf]rolo.Report, int64) {
	t.Helper()
	o = o.Pool(jobs)
	o.stats = &slotStats{}
	if _, err := RunAll(o, io.Discard, leafExperiments()); err != nil {
		t.Fatal(err)
	}
	o.memo.mu.Lock()
	defer o.memo.mu.Unlock()
	reps := make(map[leaf]rolo.Report, len(o.memo.entries))
	for l, e := range o.memo.entries {
		reps[l] = e.rep
	}
	return reps, o.stats.Total()
}

// listJournals lists dir's entries, sorted.
func listJournals(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// journalProbes reads the journal at path to its end and counts its
// probe events.
func journalProbes(t *testing.T, path string) int {
	t.Helper()
	r, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	probes := 0
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if ev.Kind == telemetry.KindProbe {
			probes++
		}
	}
	if r.Truncated() {
		t.Errorf("%s is truncated", path)
	}
	return probes
}

// TestEveryLeafRunsOnceChecked: under one pool, every distinct leaf of
// every leaf experiment is simulated exactly once, with the sanitizer,
// probes and a journal directory of its own, which verifies against its
// manifest, drops nothing and holds as many probes as the leaf's report.
// At 20 pairs the sweep has 105 distinct leaves; 132 simulations ran
// before every experiment shared the memo. Journal names depend on the
// leaves alone, so a serial sweep, which also cuts its journals into
// segments, names them as the parallel sweep does.
func TestEveryLeafRunsOnceChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the leaf experiments twice with journals")
	}
	checked := t.TempDir()
	o := Options{Scale: 0.005, Pairs: 20, Check: true, ProbeInterval: 4 * sim.Second,
		Journal: journal.RotateConfig{Dir: checked}}
	reps, sims := sweepLeaves(t, o, 4)
	if len(reps) != 105 {
		t.Errorf("%d distinct leaves at 20 pairs, want 105", len(reps))
	}
	if sims != int64(len(reps)) {
		t.Errorf("the pool served %d simulations for %d distinct leaves", sims, len(reps))
	}
	var want []string
	for l, rep := range reps {
		name := l.journalName()
		want = append(want, name)
		if rep.SanitizerEvents == 0 || rep.ProbeSamples == 0 {
			t.Errorf("%s: %d sanitizer events, %d probe samples", name, rep.SanitizerEvents, rep.ProbeSamples)
		}
		path := filepath.Join(checked, name)
		m, err := journal.Verify(path)
		if err != nil {
			t.Error(err)
			continue
		}
		if m.Writer == nil || m.Writer.Dropped != 0 {
			t.Errorf("%s: writer stats %+v, want no drops", name, m.Writer)
		}
		if got := journalProbes(t, path); got != rep.ProbeSamples {
			t.Errorf("%s: journal holds %d probes, report %d", name, got, rep.ProbeSamples)
		}
	}
	sort.Strings(want)
	if got := listJournals(t, checked); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("journals %v, want one per leaf %v", got, want)
	}

	serial := t.TempDir()
	o = Options{Scale: 0.005, Pairs: 20, Journal: journal.RotateConfig{Dir: serial, SegmentBytes: 1 << 20}}
	sweepLeaves(t, o, 1)
	got := listJournals(t, serial)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("journal names at -jobs 1 %v, at -jobs 4 %v", got, want)
	}
	for _, name := range got {
		if _, err := journal.Verify(filepath.Join(serial, name)); err != nil {
			t.Error(err)
		}
	}
}
