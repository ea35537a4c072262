package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/telemetry/journal"
)

// sampleRun is a small but representative journal: requests, a rotation,
// spin cycles, an overlapping destage window, and probes.
func sampleRun() []telemetry.Event {
	return []telemetry.Event{
		{At: 1_200_000, Kind: telemetry.KindRequestDone, Disk: -1, Pair: -1, Write: true, Bytes: 64 << 10, LatencyUs: 200_000},
		{At: 1_550_000, Kind: telemetry.KindRequestDone, Disk: -1, Pair: -1, Bytes: 4 << 10, LatencyUs: 50_000},
		{At: 2_000_000, Kind: telemetry.KindProbe, Disk: -1, Pair: -1, States: "AISU", LogUsed: 10, LogCap: 100, Backlog: 1 << 20},
		{At: 3_000_000, Kind: telemetry.KindRotation, Disk: -1, Pair: 0},
		{At: 3_100_000, Kind: telemetry.KindSpinUp, Disk: 2, Pair: -1},
		{At: 3_200_000, Kind: telemetry.KindDestageStart, Disk: -1, Pair: 1},
		{At: 3_300_000, Kind: telemetry.KindDestageStart, Disk: -1, Pair: 2},
		{At: 3_900_000, Kind: telemetry.KindDestageDone, Disk: -1, Pair: 1},
		{At: 4_200_000, Kind: telemetry.KindDestageDone, Disk: -1, Pair: 2},
		{At: 4_500_000, Kind: telemetry.KindSpinDown, Disk: 2, Pair: -1},
		{At: 5_000_000, Kind: telemetry.KindRotation, Disk: -1, Pair: 1},
		{At: 5_500_000, Kind: telemetry.KindProbe, Disk: -1, Pair: -1, States: "AISU", LogUsed: 90, LogCap: 100, Backlog: 2 << 20},
	}
}

func summarizePath(t *testing.T, path string) string {
	t.Helper()
	r, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	f := newFold()
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := f.fold(ev); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := f.report(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The summary of a rotated, compressed journal must be byte-identical to
// the summary of the same events in a single plain file.
func TestSummaryIdenticalAcrossLayouts(t *testing.T) {
	evs := sampleRun()

	single := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(single)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewJSONLSink(f)
	for _, ev := range evs {
		sink.Emit(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	w, err := journal.NewRotatingWriter(journal.RotateConfig{Dir: dir, SegmentBytes: 128, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		w.Emit(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Verify(dir); err != nil {
		t.Fatal(err)
	}

	got, want := summarizePath(t, dir), summarizePath(t, single)
	if got != want {
		t.Fatalf("rotated summary diverges from single-file summary:\n--- single ---\n%s--- rotated ---\n%s", want, got)
	}
	for _, fragment := range []string{"journal: 12 events", "destages: 2", "phase timeline (3 phases):", "rotations: 2, mean interval",
		"requests: 2 (1 reads, 1 writes), 0.07 MiB total", "response: mean 125.000 ms, max 200.000 ms over 2 completions"} {
		if !bytes.Contains([]byte(got), []byte(fragment)) {
			t.Fatalf("summary missing %q:\n%s", fragment, got)
		}
	}
}

func TestFoldRejectsNonMonotonicJournal(t *testing.T) {
	f := newFold()
	if err := f.fold(telemetry.Event{At: 100, Kind: telemetry.KindRotation, Disk: -1, Pair: 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.fold(telemetry.Event{At: 50, Kind: telemetry.KindRequestDone, Disk: -1, Pair: -1}); err == nil {
		t.Fatal("out-of-order event accepted")
	}
}

func TestFoldConstantishMemory(t *testing.T) {
	// The fold must not retain per-event state: folding 100k events keeps
	// the same footprint as folding 100 (modulo the phase timeline, which
	// is bounded by destage windows, held at one here).
	f := newFold()
	for i := 0; i < 100_000; i++ {
		ev := telemetry.Event{At: sim.Time(i + 1), Kind: telemetry.KindRequestDone, Disk: -1, Pair: -1, Bytes: 4096, LatencyUs: 1}
		if err := f.fold(ev); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.phases) > 1 || len(f.counts) != 1 || len(f.openDest) != 0 {
		t.Fatalf("fold retained per-event state: %d phases, %d kinds, %d open destages",
			len(f.phases), len(f.counts), len(f.openDest))
	}
	if f.events != 100_000 {
		t.Fatalf("events = %d", f.events)
	}
}

// A compressed run that crashed after a Flush leaves its active segment
// without a gzip trailer. rolostat still reports every flushed event, and
// warns on stderr that the journal is cut.
func TestSummaryOfCrashedCompressedRun(t *testing.T) {
	evs := sampleRun()
	dir := t.TempDir()
	w, err := journal.NewRotatingWriter(journal.RotateConfig{Dir: dir, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	for _, ev := range evs {
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := summarize(dir, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("journal: 12 events")) {
		t.Fatalf("report of the crashed run misses its events:\n%s", stdout.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("warning: journal is truncated")) {
		t.Fatalf("no truncation warning on stderr: %q", stderr.String())
	}
}
