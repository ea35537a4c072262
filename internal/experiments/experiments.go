// Package experiments regenerates every table and figure of the RoLo
// paper's evaluation (Section II's motivation figures, Section IV's
// reliability analysis, and Section V's trace-driven evaluation). Each
// experiment is a named entry in the registry; cmd/roloexp and the root
// benchmarks drive them.
//
// # Scaling
//
// Experiments run at a configurable scale factor s (default 0.1): disk
// capacity, per-disk free space, the GRAID log capacity and the trace
// length all shrink by s together. This preserves the quantities the
// paper's conclusions rest on — rotation and destage counts, spin cycles,
// idle-slot structure, normalized energy and response-time ratios — while
// cutting simulation time by 1/s (the paper's own disk-size sensitivity
// study, Section V-C, is the evidence that absolute disk size does not
// matter at fixed free-space ratio). Scale 1.0 reproduces the full-size
// configuration.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/telemetry/journal"
	"github.com/rolo-storage/rolo/internal/trace"
)

// Options configure an experiment run.
type Options struct {
	// Scale shrinks geometry and trace together; see the package comment.
	Scale float64
	// Pairs is the number of mirrored pairs (the paper's default is 20,
	// i.e. a 40-disk array).
	Pairs int
	// JournalDir, when non-empty, writes one JSONL telemetry journal per
	// simulation run into this directory, named <scheme>_<profile>.jsonl.
	// With JournalSegmentBytes set, each run instead gets a rotated
	// journal directory <scheme>_<profile>/ written through the async
	// pipeline (see internal/telemetry/journal).
	JournalDir string
	// JournalSegmentBytes rotates each run's journal into segments of
	// this many bytes (0 keeps the single-file layout).
	JournalSegmentBytes int64
	// JournalCompress writes every journal segment gzip-compressed.
	JournalCompress bool
	// JournalRetain keeps only the newest N segments per run (0 = all).
	JournalRetain int
	// ProbeInterval enables periodic telemetry probes in every run.
	ProbeInterval sim.Time
	// Check enables the RoloSan invariant sanitizer in every run; the
	// first violation fails the experiment.
	Check bool
	// Jobs bounds how many simulations run concurrently (0 selects
	// GOMAXPROCS). It takes effect once a pool is attached with Pool;
	// options without a pool run serially regardless of Jobs.
	Jobs int

	// sem is the shared simulation-slot semaphore attached by Pool.
	// Copies of the options share the channel, so every experiment run
	// under one RunAll draws from the same slot budget. A nil sem means
	// "no pool": acquire is a no-op and runPar degenerates to a serial
	// loop.
	sem chan struct{}
	// stats, when non-nil, observes slot occupancy (tests attach it to
	// pin the shared-budget invariant; see slotStats).
	stats *slotStats
	// held, when non-nil, accumulates the nanoseconds this experiment's
	// leaf simulations hold pool slots; RunAll attaches one per
	// experiment.
	held *atomic.Int64
}

// DefaultOptions returns the default experiment options.
func DefaultOptions() Options {
	return Options{Scale: 0.1, Pairs: 20}
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.Scale <= 0 || o.Scale > 1 {
		return fmt.Errorf("experiments: scale %g outside (0,1]", o.Scale)
	}
	if o.Pairs < 2 {
		return fmt.Errorf("experiments: pairs %d < 2", o.Pairs)
	}
	if o.ProbeInterval < 0 {
		return fmt.Errorf("experiments: negative probe interval %v", o.ProbeInterval)
	}
	if o.JournalSegmentBytes < 0 {
		return fmt.Errorf("experiments: negative journal segment size %d", o.JournalSegmentBytes)
	}
	if (o.JournalCompress || o.JournalRetain != 0) && o.JournalSegmentBytes == 0 {
		return fmt.Errorf("experiments: journal compression/retention requires a segment size")
	}
	if o.Jobs < 0 {
		return fmt.Errorf("experiments: negative job count %d", o.Jobs)
	}
	return nil
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options, w io.Writer) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID) // programmer error at init
	}
	registry[e.ID] = e
}

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		all := All()
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
	}
	return e, nil
}

// scaledConfig builds the paper's configuration scaled by o.Scale:
// 18.4 GB drives with freeGiB of logging space each, a 16 GB GRAID log
// disk, and a 64 KB stripe unit.
func scaledConfig(scheme rolo.Scheme, o Options, freeGiB float64, stripe int64) rolo.Config {
	cfg := rolo.DefaultConfig(scheme)
	cfg.Pairs = o.Pairs
	cfg.StripeUnitBytes = stripe
	cfg.Disk.CapacityBytes = scaleBytes(18.4*(1<<30), o.Scale)
	cfg.FreeBytesPerDisk = scaleBytes(freeGiB*(1<<30), o.Scale)
	cfg.GRAID.LogCapacityBytes = scaleBytes(16*(1<<30), o.Scale)
	return cfg
}

func scaleBytes(b float64, scale float64) int64 {
	v := int64(b * scale)
	const align = 1 << 20
	v -= v % align
	if v < align {
		v = align
	}
	return v
}

// journalNames uniquifies per-run journal directory names across the
// whole process; which duplicate gets which suffix depends on pool
// scheduling, but every directory is internally complete and verifiable.
var journalNames struct {
	mu   sync.Mutex
	used map[string]int
}

func claimJournalName(base string) string {
	journalNames.mu.Lock()
	defer journalNames.mu.Unlock()
	if journalNames.used == nil {
		journalNames.used = map[string]int{}
	}
	journalNames.used[base]++
	if n := journalNames.used[base]; n > 1 {
		return fmt.Sprintf("%s_%d", base, n)
	}
	return base
}

// runProfile simulates one scheme against one calibrated trace profile at
// the option scale. When o.JournalDir is set, the run's telemetry journal
// is written alongside; probes follow o.ProbeInterval either way.
func runProfile(scheme rolo.Scheme, o Options, profile string, freeGiB float64, stripe int64) (rep rolo.Report, err error) {
	defer o.acquire()() // one pool slot per leaf simulation
	cfg := scaledConfig(scheme, o, freeGiB, stripe)
	recs, err := rolo.GenerateProfile(profile, cfg, o.Scale)
	if err != nil {
		return rolo.Report{}, err
	}
	cfg.Telemetry.ProbeInterval = o.ProbeInterval
	cfg.Check = o.Check
	switch {
	case o.JournalDir != "" && o.JournalSegmentBytes > 0:
		// Rotated mode: one journal directory per run, written through
		// the async pipeline. Blocking policy keeps the journal complete
		// and byte-deterministic; the per-run directory keeps concurrent
		// runs from interleaving segments. Several experiments simulate
		// the same (scheme, profile) cell with different free-space or
		// stripe parameters, so duplicate names get a _2, _3, … suffix —
		// two rotating writers in one directory would corrupt each other.
		dir := filepath.Join(o.JournalDir, claimJournalName(fmt.Sprintf("%s_%s", scheme, profile)))
		if mkerr := os.MkdirAll(dir, 0o755); mkerr != nil {
			return rolo.Report{}, mkerr
		}
		w, werr := journal.NewRotatingWriter(journal.RotateConfig{
			Dir:          dir,
			SegmentBytes: o.JournalSegmentBytes,
			Compress:     o.JournalCompress,
			Retain:       o.JournalRetain,
		})
		if werr != nil {
			return rolo.Report{}, werr
		}
		sink := journal.NewAsyncSink(w, journal.AsyncConfig{Policy: journal.PolicyBlock})
		// Closing drains the ring and writes the manifest; a close
		// failure means a broken journal, so it surfaces as the run's
		// error.
		defer func() {
			if cerr := sink.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		cfg.Telemetry.Sink = sink
	case o.JournalDir != "":
		name := fmt.Sprintf("%s_%s.jsonl", scheme, profile)
		f, ferr := os.Create(filepath.Join(o.JournalDir, name))
		if ferr != nil {
			return rolo.Report{}, ferr
		}
		// The journal is written through this file; a failed close means
		// a truncated journal, so it surfaces as the run's error.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		cfg.Telemetry.Sink = telemetry.NewJSONLSink(f)
	}
	rep, err = rolo.Run(cfg, recs)
	if err != nil {
		return rolo.Report{}, fmt.Errorf("%v on %s: %w", scheme, profile, err)
	}
	return rep, nil
}

// table is a minimal fixed-width table printer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	for _, r := range t.rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	return nil
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%.1f%%", 100*v)
}

// mainTraces are the two write-intensive traces of the main evaluation.
var mainTraces = []string{"src2_2", "proj_0"}

// ensure the trace package profiles exist at init (programming guard).
var _ = trace.Profiles
