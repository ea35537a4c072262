package experiments

import (
	"bytes"
	"strings"
	"testing"
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
