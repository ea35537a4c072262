package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/fleet"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/telemetry/journal"
	"github.com/rolo-storage/rolo/internal/trace"
)

// seedStride spaces workload seeds: seed s replays profile p with
// Synthetic.Seed = p.Seed + s·seedStride, so seed 0 reproduces the
// calibrated profiles' own seeds and different profiles never share a
// random stream.
const seedStride = 1_000_000

// workload is one named benchmark input. An iteration is setup (configs
// and trace records, timed as setup_s) followed by its runs back to back.
type workload struct {
	name string
	// profiles, scale and observed describe the replay workloads: every
	// profile through every scheme on a 20-pair array scaled by scale.
	profiles []string
	scale    float64
	observed bool
	// shards > 0 makes this the fleet workload.
	shards int
}

var workloads = []workload{
	{name: "replay_write", profiles: []string{"src2_2", "proj_0"}, scale: 0.05},
	{name: "replay_read", profiles: []string{"hm_1", "rsrch_2"}, scale: 0.5},
	{name: "fleet", shards: 1024},
	{name: "observed", profiles: []string{"src2_2", "proj_0"}, scale: 0.02, observed: true},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runInput is one simulation of a replay iteration.
type runInput struct {
	cfg  rolo.Config
	recs []trace.Record
}

// iteration is the output of setup: the runs of a replay workload, or
// the fleet spec.
type iteration struct {
	runs []runInput
	spec fleet.Spec
}

// genTimer observes trace generation, which returns the number of
// records made; the traced pass times it, the untraced loop passes nil.
type genTimer func(gen func() (int, error)) error

// setup builds every config and materializes every trace record.
func (w workload) setup(seed int64, timeGen genTimer) (*iteration, error) {
	if w.shards > 0 {
		spec := fleet.DefaultSpec()
		spec.Shards = w.shards
		spec.Base.Seed += seed * seedStride
		return &iteration{spec: spec}, spec.Validate()
	}
	it := &iteration{}
	for _, name := range w.profiles {
		p, err := trace.Lookup(name)
		if err != nil {
			return nil, err
		}
		syn, err := p.Synthetic(w.scale)
		if err != nil {
			return nil, err
		}
		syn.Seed += seed * seedStride
		base := scaledConfig(rolo.SchemeRAID10, w.scale)
		var recs []trace.Record
		gen := func() (int, error) {
			recs, err = syn.Generate(base.VolumeBytes())
			return len(recs), err
		}
		if timeGen != nil {
			err = timeGen(gen)
		} else {
			_, err = gen()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for _, s := range rolo.Schemes {
			cfg := scaledConfig(s, w.scale)
			if w.observed {
				cfg.Check = true
				cfg.Telemetry.ProbeInterval = 30 * sim.Second
			}
			it.runs = append(it.runs, runInput{cfg: cfg, recs: recs})
		}
	}
	return it, nil
}

// scaledConfig is the paper's 20-pair array with drives, 8 GiB logging
// regions and the GRAID log disk shrunk by scale, the same discipline as
// the experiments package, so the trace and the array shrink together.
func scaledConfig(s rolo.Scheme, scale float64) rolo.Config {
	cfg := rolo.DefaultConfig(s)
	cfg.Disk.CapacityBytes = scaleBytes(18.4*(1<<30), scale)
	cfg.FreeBytesPerDisk = scaleBytes(8*(1<<30), scale)
	cfg.GRAID.LogCapacityBytes = scaleBytes(16*(1<<30), scale)
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

// journaled runs fn with a sink writing a rotated, gzip-compressed
// journal in dir behind a blocking AsyncSink, as a nightly run writes it.
// It then closes the sink, recording the drain as a journal.close span
// under parent, checks the manifest, the segments and that nothing was
// dropped, and deletes the journal.
func journaled(dir string, spans *spanLog, parent, run int, fn func(telemetry.Sink) error) (*journal.Manifest, time.Duration, error) {
	w, err := journal.NewRotatingWriter(journal.RotateConfig{Dir: dir, SegmentBytes: 4 << 20, Compress: true})
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	sink := journal.NewAsyncSink(w, journal.AsyncConfig{Policy: journal.PolicyBlock})
	err = fn(sink)
	id := spans.begin("journal.close", parent, run)
	t := time.Now()
	cerr := sink.Close()
	drain := time.Since(t)
	spans.end(id)
	if err = errors.Join(err, cerr); err != nil {
		return nil, drain, err
	}
	m, err := journal.Verify(dir)
	if err != nil {
		return nil, drain, err
	}
	if m.Writer == nil || m.Writer.Dropped != 0 {
		return nil, drain, fmt.Errorf("journal %s: writer stats missing or events dropped", dir)
	}
	return m, drain, nil
}

// runUntraced executes one run of a replay iteration through rolo.Run.
func (w workload) runUntraced(in runInput, journalDir string) (rep rolo.Report, err error) {
	if !w.observed {
		return rolo.Run(in.cfg, in.recs)
	}
	_, _, err = journaled(filepath.Join(journalDir, "untraced"), nil, 0, 0, func(sink telemetry.Sink) error {
		cfg := in.cfg
		cfg.Telemetry.Sink = sink
		rep, err = rolo.Run(cfg, in.recs)
		return err
	})
	return rep, err
}

// runFleet executes the fleet iteration on an nproc-slot pool.
func runFleet(spec fleet.Spec) (fleet.ClusterReport, error) {
	return fleet.Run(spec, fleet.NewPool(runtime.NumCPU()))
}

// reportDigest is the SHA-256 of a run's JSON report.
func reportDigest(rep *rolo.Report) string {
	b, err := json.Marshal(rep)
	if err != nil {
		return "marshal: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// clusterDigest is the SHA-256 of a fleet's canonical text report.
func clusterDigest(rep *fleet.ClusterReport) string {
	var sb strings.Builder
	_ = rep.WriteText(&sb) // a strings.Builder never fails
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// checkReport verifies a replay report against itself: every record was
// answered and the class counts add up.
func checkReport(rep *rolo.Report, records int) error {
	if rep.Requests != int64(records) {
		return fmt.Errorf("report has %d requests for %d records", rep.Requests, records)
	}
	if rep.ReadLatency.Count+rep.WriteLatency.Count != rep.Requests {
		return fmt.Errorf("read %d + write %d != %d requests",
			rep.ReadLatency.Count, rep.WriteLatency.Count, rep.Requests)
	}
	return nil
}

// checkCluster verifies a fleet report against itself.
func checkCluster(rep *fleet.ClusterReport, shards int) error {
	if rep.Shards != shards {
		return fmt.Errorf("cluster report has %d shards, want %d", rep.Shards, shards)
	}
	var sum int64
	n := 0
	for _, s := range rep.Schemes {
		sum += s.Requests
		n += s.Shards
	}
	if rep.Requests <= 0 || sum != rep.Requests || n != shards {
		return fmt.Errorf("cluster requests %d, per-scheme sum %d over %d shards", rep.Requests, sum, n)
	}
	return nil
}
