package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolDefaults(t *testing.T) {
	o := tinyOptions()
	if o.sem != nil {
		t.Fatal("options start with a pool attached")
	}
	p := o.Pool(3)
	if p.Jobs != 3 || cap(p.sem) != 3 {
		t.Fatalf("Pool(3): Jobs=%d cap=%d, want 3/3", p.Jobs, cap(p.sem))
	}
	o.Jobs = 2
	p = o.Pool(0)
	if p.Jobs != 2 || cap(p.sem) != 2 {
		t.Fatalf("Pool(0) with Jobs=2: Jobs=%d cap=%d, want 2/2", p.Jobs, cap(p.sem))
	}
	p = tinyOptions().Pool(0)
	if p.Jobs < 1 || cap(p.sem) != p.Jobs {
		t.Fatalf("Pool(0) with no Jobs: Jobs=%d cap=%d, want GOMAXPROCS-sized pool", p.Jobs, cap(p.sem))
	}
}

func TestValidateRejectsNegativeJobs(t *testing.T) {
	o := tinyOptions()
	o.Jobs = -1
	if err := o.Validate(); err == nil {
		t.Fatal("negative Jobs accepted")
	}
}

func TestRunParSerialWithoutPool(t *testing.T) {
	o := tinyOptions() // no pool: must run in index order on this goroutine
	var order []int
	err := runPar(o, 5, func(i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial runPar order %v, want ascending", order)
		}
	}
}

func TestRunParFirstErrorByIndex(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, jobs := range []int{1, 4} {
		o := tinyOptions().Pool(jobs)
		err := runPar(o, 8, func(i int) error {
			switch i {
			case 2:
				return errLow
			case 6:
				return errHigh
			default:
				return nil
			}
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("jobs=%d: got %v, want the lowest-index error %v", jobs, err, errLow)
		}
	}
}

func TestRunParRunsEveryIndexOnce(t *testing.T) {
	o := tinyOptions().Pool(4)
	const n = 32
	var counts [n]atomic.Int32
	if err := runPar(o, n, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, got)
		}
	}
}

func TestAcquireBoundsInFlight(t *testing.T) {
	o := tinyOptions().Pool(2)
	var inflight, peak atomic.Int32
	err := runPar(o, 16, func(i int) error {
		release := o.acquire()
		defer release()
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				return nil
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak in-flight %d exceeds the pool size 2", p)
	}
}

func TestRunAllPartialOutputOnError(t *testing.T) {
	boom := errors.New("boom")
	list := []Experiment{
		{ID: "a", Run: func(o Options, w io.Writer) error { fmt.Fprintln(w, "alpha"); return nil }},
		{ID: "b", Run: func(o Options, w io.Writer) error { fmt.Fprintln(w, "partial"); return boom }},
		{ID: "c", Run: func(o Options, w io.Writer) error { fmt.Fprintln(w, "gamma"); return nil }},
	}
	var buf bytes.Buffer
	_, err := RunAll(tinyOptions().Pool(4), &buf, list)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "b:") {
		t.Fatalf("got error %v, want %v attributed to experiment b", err, boom)
	}
	out := buf.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "partial") {
		t.Errorf("output lost the completed prefix:\n%s", out)
	}
	if strings.Contains(out, "gamma") {
		t.Errorf("output continued past the failing experiment:\n%s", out)
	}
}

// TestRunAllDeterministic is the tentpole acceptance check: the bytes
// RunAll writes are identical to a serial experiment-by-experiment run
// and invariant under the job count.
func TestRunAllDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment sweep three times")
	}
	o := tinyOptions()
	list := All()

	var serial bytes.Buffer
	for i, e := range list {
		if i > 0 {
			io.WriteString(&serial, separator)
		}
		if err := e.Run(o, &serial); err != nil {
			t.Fatalf("serial %s: %v", e.ID, err)
		}
	}

	for _, jobs := range []int{1, 4} {
		var buf bytes.Buffer
		walls, err := RunAll(o.Pool(jobs), &buf, list)
		if err != nil {
			t.Fatalf("RunAll jobs=%d: %v", jobs, err)
		}
		var total time.Duration
		for _, d := range walls {
			total += d
		}
		if len(walls) != len(list) || total <= 0 {
			t.Fatalf("RunAll jobs=%d timed %d of %d experiments, %v in all", jobs, len(walls), len(list), total)
		}
		if !bytes.Equal(serial.Bytes(), buf.Bytes()) {
			t.Errorf("RunAll jobs=%d output differs from the serial run (serial %d bytes, got %d)",
				jobs, serial.Len(), buf.Len())
		}
	}
}

// TestRunAllTimesHeldSlots: RunAll reports the time each experiment's
// leaf simulations held pool slots, fleet shards included, not its wall
// time, which includes waits for a slot. At one job the slots are held
// one at a time, so the times sum to no more than the sweep's wall time.
func TestRunAllTimesHeldSlots(t *testing.T) {
	var list []Experiment
	// fig2 runs its own leaf simulations, the fleet's shards hold slots
	// too, and eqs simulates nothing.
	for _, id := range []string{"fig2", "fleet", "eqs"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		list = append(list, e)
	}
	start := time.Now()
	held, err := RunAll(tinyOptions().Pool(1), io.Discard, list)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for i, d := range held {
		sum += d
		if simulates := list[i].ID != "eqs"; simulates != (d > 0) {
			t.Errorf("%s held pool slots for %v", list[i].ID, d)
		}
	}
	if sum > wall {
		t.Fatalf("per-experiment times %v sum to %v, more than the %v sweep", held, sum, wall)
	}
}
