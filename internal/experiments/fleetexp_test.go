package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rolo-storage/rolo/internal/fleet"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry/journal"
)

// TestFleetSharesSlotBudget pins the no-pool-in-pool invariant: under
// RunAll, a fleet experiment's shards are leaf simulations on the one
// shared slot semaphore. Two checks together rule out both failure
// modes: Total counts one acquisition per shard (a fleet running its
// own private pool would bypass the shared semaphore and leave Total
// short), and Max bounds in-flight simulations by the slot count (a
// nested pool multiplying concurrency would exceed it).
func TestFleetSharesSlotBudget(t *testing.T) {
	o := DefaultOptions().Pool(2)
	o.Scale = 0.05 // shards stay tiny; this test is about scheduling
	stats := &slotStats{}
	o.stats = stats

	fleetExp, err := Lookup("fleet")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := RunAll(o, &buf, []Experiment{fleetExp, fleetExp}); err != nil {
		t.Fatal(err)
	}
	if got := stats.Max(); got > 2 {
		t.Fatalf("observed %d simulations in flight with a 2-slot pool — the fleet is not sharing the budget", got)
	}
	if got, want := stats.Total(), int64(2*64); got != want {
		t.Fatalf("shared pool served %d acquisitions, want %d (one per shard of each fleet)", got, want)
	}
	if !strings.Contains(buf.String(), "fleet: 64 shards") {
		t.Fatalf("fleet output missing cluster header:\n%s", buf.String())
	}
}

// TestFleetExperimentDeterministic pins the experiment contract RunAll
// relies on: the fleet experiment writes identical bytes at any job
// count.
func TestFleetExperimentDeterministic(t *testing.T) {
	fleetExp, err := Lookup("fleet")
	if err != nil {
		t.Fatal(err)
	}
	run := func(o Options) string {
		var buf bytes.Buffer
		if err := fleetExp.Run(o, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	o := DefaultOptions()
	o.Scale = 0.05
	serial := run(o)
	if parallel := run(o.Pool(4)); parallel != serial {
		t.Fatalf("fleet experiment output depends on job count:\n--- serial ---\n%s--- jobs=4 ---\n%s", serial, parallel)
	}
}

// TestFleetExperimentJournals pins that the fleet experiment honours the
// journal and probe options: every shard writes one rotated journal
// directory, shard-NNNNN/, directly under the journal dir, and each
// verifies against its manifest with no dropped events and with probe
// samples in it. The flags observe the shards, so stdout is the same as
// without them.
func TestFleetExperimentJournals(t *testing.T) {
	fleetExp, err := Lookup("fleet")
	if err != nil {
		t.Fatal(err)
	}
	run := func(o Options) string {
		var buf bytes.Buffer
		if err := fleetExp.Run(o, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	o := DefaultOptions()
	o.Scale = 0.05
	plain := run(o)

	dir := t.TempDir()
	o.Journal.Dir = dir
	o.ProbeInterval = 2 * sim.Second
	if got := run(o.Pool(2)); got != plain {
		t.Errorf("journals and probes changed the fleet's output:\n--- without ---\n%s--- with ---\n%s", plain, got)
	}

	shards := fleet.DefaultSpec().Shards
	var want []string
	for i := 0; i < shards; i++ {
		want = append(want, fmt.Sprintf("shard-%05d", i))
	}
	if got := listJournals(t, dir); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("journal dir holds %v, want one directory per shard %v", got, want)
	}
	for _, name := range want {
		path := filepath.Join(dir, name)
		m, err := journal.Verify(path)
		if err != nil {
			t.Fatal(err)
		}
		if m.Writer == nil || m.Writer.Dropped != 0 {
			t.Errorf("%s: writer stats %+v, want no drops", name, m.Writer)
		}
		if journalProbes(t, path) == 0 {
			t.Errorf("%s: no probe events", name)
		}
	}
}
