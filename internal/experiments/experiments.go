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
// length all shrink by s together. This preserves the quantities that
// scale with the log — GRAID's and RoLo-P/R's rotation, destage and spin
// counts, idle-slot structure, normalized energy — while cutting
// simulation time by 1/s (the paper's own disk-size sensitivity study,
// Section V-C, is the evidence that absolute disk size does not matter at
// fixed free-space ratio). Quantities that follow the replayed window do
// not hold: RoLo-E's read misses, and with them its spin-ups, hit rate
// and response time, differ between scales (EXPERIMENTS.md, "Reproducing
// at other scales"). Scale 1.0 reproduces the full-size configuration.
package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/sim"
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
	// Journal, when Journal.Dir is non-empty, writes one rotated
	// telemetry journal per simulation into Journal.Dir, a directory
	// named <scheme>_<trace>_<hash>/ that the simulation's own goroutine
	// writes (see internal/telemetry/journal). The hash covers the run's
	// whole configuration and workload: distinct runs get distinct
	// names, and the names are the same at every job count. The fleet
	// experiment's shards write theirs there too, named shard-NNNNN/.
	Journal journal.RotateConfig
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
	// memo, attached by Pool beside sem, runs each distinct leaf once
	// for as long as the pool lives; without a pool it is nil and every
	// leaf simulates.
	memo *leafMemo
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
	if err := o.Journal.Validate(); err != nil {
		return err
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

// leaf is one simulation of an experiment: the configuration it runs,
// without a telemetry sink, the workload that generates its records, and
// the trace label that names it. simulate adds the options' sanitizer,
// probes and journal. A leaf determines its report, so leaves are
// comparable values and, under one pool, equal leaves run once
// (leafMemo).
type leaf struct {
	cfg   rolo.Config
	wl    trace.Synthetic
	trace string
}

// profileLeaf is scheme replaying a calibrated MSR profile on the paper's
// geometry scaled by o.Scale, with o.Pairs pairs, freeGiB of logging
// space per disk and the given stripe unit.
func profileLeaf(o Options, scheme rolo.Scheme, profile string, freeGiB float64, stripe int64) (leaf, error) {
	cfg := rolo.ScaledConfig(scheme, o.Scale, freeGiB)
	cfg.Pairs = o.Pairs
	cfg.StripeUnitBytes = stripe
	p, err := trace.Lookup(profile)
	if err != nil {
		return leaf{}, err
	}
	wl, err := p.Synthetic(o.Scale)
	if err != nil {
		return leaf{}, err
	}
	return leaf{cfg: cfg, wl: wl, trace: profile}, nil
}

// journalName names the leaf's journal: its scheme and trace, then a
// 64-bit FNV hash of the whole leaf. Distinct leaves therefore get
// distinct journals, barring a hash collision, and the names do not
// depend on which experiment ran a leaf first.
func (l leaf) journalName() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", l)
	return fmt.Sprintf("%s_%s_%016x", l.cfg.Scheme, l.trace, h.Sum64())
}

// runLeaves runs the leaves across the option pool and returns their
// reports in leaf order. Under a pool each distinct leaf is simulated
// once, and later callers, from any experiment, share its report.
func (o Options) runLeaves(leaves []leaf) ([]rolo.Report, error) {
	reps := make([]rolo.Report, len(leaves))
	err := runPar(o, len(leaves), func(i int) (err error) {
		l := leaves[i]
		if o.memo == nil {
			reps[i], err = o.simulate(l)
		} else {
			e := o.memo.entry(l)
			e.once.Do(func() { e.rep, e.err = o.simulate(l) })
			reps[i], err = e.rep, e.err
		}
		if err != nil {
			return fmt.Errorf("%v on %s: %w", l.cfg.Scheme, l.trace, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reps, nil
}

// simulate runs one leaf in a pool slot with the options' sanitizer and
// probes, writing its telemetry journal when o.Journal.Dir is set.
func (o Options) simulate(l leaf) (rep rolo.Report, err error) {
	defer o.acquire()() // one pool slot per leaf simulation
	cfg := l.cfg
	recs, err := l.wl.Generate(cfg.VolumeBytes())
	if err != nil {
		return rolo.Report{}, err
	}
	cfg.Telemetry.ProbeInterval = o.ProbeInterval
	cfg.Check = o.Check
	if o.Journal.Dir != "" {
		jc := o.Journal
		jc.Dir = filepath.Join(jc.Dir, l.journalName())
		sink, jerr := journal.NewRotatingWriter(jc)
		if jerr != nil {
			return rolo.Report{}, jerr
		}
		// Closing seals the last segment and writes the manifest; a close
		// failure means a broken journal, so it surfaces as the run's
		// error.
		defer func() {
			if cerr := sink.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		cfg.Telemetry.Sink = sink
	}
	return rolo.Run(cfg, recs)
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
