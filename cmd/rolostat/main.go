// Command rolostat analyzes a telemetry journal written by rolosim,
// roloexp or rolofleet -journal and prints a run summary: event counts,
// request statistics, rotation and destage activity, per-disk spin
// cycles, and the reconstructed normal/destaging phase timeline.
//
// The argument is a journal directory (run-NNNNN.jsonl[.gz] segments plus
// manifest.json, as every tool writes it), or a single JSONL file: one
// segment, or the output of the library's telemetry.JSONLSink. Events are
// folded in a single streaming pass, so memory stays constant regardless
// of journal size. -verify first checks every segment of a directory
// against its manifest.
//
// Usage:
//
//	rolostat rundir/
//	rolostat -verify rundir/
//	rolosim -scheme RoLo-P -journal rundir && rolostat rundir
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/telemetry/journal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rolostat:", err)
		os.Exit(1)
	}
}

func run() error {
	verify := flag.Bool("verify", false, "verify the rotated journal against its manifest (directory input only)")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: rolostat [-verify] <journal-dir | journal.jsonl>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return fmt.Errorf("expected one journal path, got %d", flag.NArg())
	}
	path := flag.Arg(0)

	if *verify {
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return fmt.Errorf("%s: -verify requires a rotated journal directory", path)
		}
		m, err := journal.Verify(path)
		if err != nil {
			return fmt.Errorf("manifest verification: %w", err)
		}
		fmt.Printf("manifest: %d segments, %d events, all checksums match\n", len(m.Segments), m.Events())
		if w := m.Writer; w != nil {
			fmt.Printf("writer: %d enqueued, %d written, %d dropped, peak ring occupancy %d/%d\n",
				w.Enqueued, w.Written, w.Dropped, w.PeakOccupancy, w.Capacity)
			if w.Dropped > 0 {
				fmt.Fprintf(os.Stderr, "rolostat: warning: journal is incomplete (%d events dropped under backpressure)\n", w.Dropped)
			}
		}
		fmt.Println()
	}

	return summarize(path, os.Stdout, os.Stderr)
}

// summarize folds the journal at path and writes its report to stdout. A
// journal whose last segment a crash cut short is reported up to its last
// complete line, with a warning on stderr.
func summarize(path string, stdout, stderr io.Writer) error {
	r, err := journal.Open(path)
	if err != nil {
		return err
	}
	defer r.Close() //lint:allow resourcelifecycle:dropped-error read-only journal, close error carries no data

	f := newFold()
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := f.fold(ev); err != nil {
			return err
		}
	}
	if f.events == 0 {
		return fmt.Errorf("%s: empty journal", path)
	}
	if err := f.report(stdout); err != nil {
		return err
	}
	if r.Truncated() {
		fmt.Fprintf(stderr, "rolostat: warning: journal is truncated (its last segment ends in a cut, as a crashed run leaves it); the report covers the %d events before the cut\n", f.events)
	}
	return nil
}

// phase is one contiguous span of the normal/destaging timeline.
type phase struct {
	start, end sim.Time
	destaging  bool
	open       bool // run ended before the span closed
}

// fold accumulates the run summary one event at a time; everything it
// holds is either a fixed-size aggregate or bounded by the disk/pair
// population, never by journal length.
type fold struct {
	events      int64
	first, last sim.Time
	counts      map[telemetry.Kind]int64
	reqBytes    int64
	reads       int64
	writes      int64
	latSum      float64
	latMax      int64
	rotations   int64
	rotGap      sim.Time // sum of inter-rotation gaps
	lastRot     sim.Time
	spinUps     map[int]int
	spinDowns   map[int]int
	destageDur  sim.Time
	phases      []phase
	cur         phase
	live        int // destages in flight
	peakOcc     float64
	peakBack    int64
	probes      int64
	destages    int64
	openDest    map[int][]sim.Time // pair -> start stack
}

func newFold() *fold {
	return &fold{
		counts:    map[telemetry.Kind]int64{},
		spinUps:   map[int]int{},
		spinDowns: map[int]int{},
		openDest:  map[int][]sim.Time{},
	}
}

func (f *fold) closePhase(at sim.Time, destaging bool) {
	if at > f.cur.start {
		f.cur.end = at
		f.phases = append(f.phases, f.cur)
	}
	f.cur = phase{start: at, destaging: destaging}
}

func (f *fold) fold(ev telemetry.Event) error {
	if f.events == 0 {
		f.first = ev.At
		f.cur = phase{start: ev.At}
	} else if ev.At < f.last {
		return fmt.Errorf("event %d: timestamp %v before %v (journal not monotonic)", f.events, ev.At, f.last)
	}
	f.last = ev.At
	f.events++
	f.counts[ev.Kind]++
	switch ev.Kind {
	case telemetry.KindRequestDone:
		f.reqBytes += ev.Bytes
		if ev.Write {
			f.writes++
		} else {
			f.reads++
		}
		f.latSum += float64(ev.LatencyUs)
		if ev.LatencyUs > f.latMax {
			f.latMax = ev.LatencyUs
		}
	case telemetry.KindRotation:
		if f.rotations > 0 {
			f.rotGap += ev.At - f.lastRot
		}
		f.lastRot = ev.At
		f.rotations++
	case telemetry.KindSpinUp:
		f.spinUps[ev.Disk]++
	case telemetry.KindSpinDown:
		f.spinDowns[ev.Disk]++
	case telemetry.KindDestageStart:
		if f.live == 0 && !f.cur.destaging {
			f.closePhase(ev.At, true)
		}
		f.live++
		f.openDest[ev.Pair] = append(f.openDest[ev.Pair], ev.At)
	case telemetry.KindDestageDone:
		f.destages++
		if st := f.openDest[ev.Pair]; len(st) > 0 {
			f.destageDur += ev.At - st[len(st)-1]
			f.openDest[ev.Pair] = st[:len(st)-1]
		}
		if f.live > 0 {
			f.live--
		}
		if f.live == 0 && f.cur.destaging {
			f.closePhase(ev.At, false)
		}
	case telemetry.KindProbe:
		f.probes++
		if ev.LogCap > 0 {
			if occ := float64(ev.LogUsed) / float64(ev.LogCap); occ > f.peakOcc {
				f.peakOcc = occ
			}
		}
		if ev.Backlog > f.peakBack {
			f.peakBack = ev.Backlog
		}
	}
	return nil
}

func (f *fold) report(w io.Writer) error {
	f.cur.end = f.last
	f.cur.open = f.live > 0
	if f.cur.end > f.cur.start || len(f.phases) == 0 {
		f.phases = append(f.phases, f.cur)
	}

	fmt.Fprintf(w, "journal: %d events over %v\n\n", f.events, f.last-f.first)

	fmt.Fprintln(w, "event counts:")
	for _, k := range telemetry.Kinds {
		if f.counts[k] > 0 {
			fmt.Fprintf(w, "  %-13s %d\n", k, f.counts[k])
		}
	}

	if n := f.reads + f.writes; n > 0 {
		fmt.Fprintf(w, "\nrequests: %d (%d reads, %d writes), %.2f MiB total\n",
			n, f.reads, f.writes, float64(f.reqBytes)/(1<<20))
		fmt.Fprintf(w, "response: mean %.3f ms, max %.3f ms over %d completions\n",
			f.latSum/float64(n)/1000, float64(f.latMax)/1000, n)
	}

	if f.rotations > 0 {
		fmt.Fprintf(w, "\nrotations: %d", f.rotations)
		if f.rotations > 1 {
			fmt.Fprintf(w, ", mean interval %v", f.rotGap/sim.Time(f.rotations-1))
		}
		fmt.Fprintln(w)
	}

	if f.destages > 0 {
		fmt.Fprintf(w, "destages: %d, total busy time %v\n", f.destages, f.destageDur)
	}

	if len(f.spinUps) > 0 {
		disks := make([]int, 0, len(f.spinUps))
		for d := range f.spinUps {
			disks = append(disks, d)
		}
		sort.Ints(disks)
		fmt.Fprintf(w, "\nspin cycles per disk (%d disks cycled):\n", len(disks))
		for _, d := range disks {
			fmt.Fprintf(w, "  disk %2d: %d up / %d down\n", d, f.spinUps[d], f.spinDowns[d])
		}
	}

	if f.probes > 0 {
		fmt.Fprintf(w, "\nprobes: %d samples, peak log occupancy %.1f%%, peak backlog %.2f MiB\n",
			f.probes, 100*f.peakOcc, float64(f.peakBack)/(1<<20))
	}

	fmt.Fprintf(w, "\nphase timeline (%d phases):\n", len(f.phases))
	var normal, destaging sim.Time
	for _, p := range f.phases {
		name := "normal"
		if p.destaging {
			name = "destaging"
			destaging += p.end - p.start
		} else {
			normal += p.end - p.start
		}
		suffix := ""
		if p.open {
			suffix = " (run ended mid-phase)"
		}
		fmt.Fprintf(w, "  %12v .. %12v  %-9s %v%s\n", p.start, p.end, name, p.end-p.start, suffix)
	}
	if total := normal + destaging; total > 0 {
		fmt.Fprintf(w, "destaging fraction: %.2f%% of journal span\n",
			100*float64(destaging)/float64(total))
	}
	return nil
}
