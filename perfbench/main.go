// Command perfbench is the simulator's end-to-end benchmark. It replays
// one named workload in a closed loop for a fixed wall-clock budget and
// prints its metrics as one JSON object on the last line of stdout:
// end-to-end metrics untraced (-trace 0), or per-layer metrics from a
// separate traced pass (-trace 1). See README.md in this directory.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/fleet"
)

// digestsJSON holds each workload's per-run report digests at seed 0,
// written by -write-digests.
//
//go:embed digests.json
var digestsJSON []byte

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name: replay_write, replay_read, fleet or observed")
	seed := flag.Int64("seed", 0, "workload seed; 0 reproduces the calibrated profiles and has recorded report digests")
	seconds := flag.Float64("seconds", 10, "wall-clock budget; with -trace 1 it is split between the untraced and traced passes")
	traced := flag.Int("trace", 0, "0 prints end-to-end metrics, 1 runs the traced pass and prints per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "trace"), "directory for the traced pass's span file")
	scratch := flag.String("scratch", filepath.Join(".bench_build", "journal"), "directory for the observed workload's journals")
	writeDigests := flag.String("write-digests", "", "run every workload once at seed 0 and write their report digests to this file")
	flag.Parse()

	if *writeDigests != "" {
		if err := recordDigests(*writeDigests, *scratch); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (%v)\n", err)
		flag.Usage()
		return 2
	}
	v, err := newVerifier(w.name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traced == 0 {
		res = endToEnd(w, *seed, budget, *scratch, v)
	} else {
		res, err = perLayer(w, *seed, budget, *scratch, *out, v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	res.Attempted, res.Failed = v.attempted, v.failed
	res.Correct = v.failed == 0
	for _, f := range v.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// iterStats is one untraced iteration: setup, then every run.
type iterStats struct {
	// setup is the setup's CPU time on the calling thread; cpu is the
	// whole process's CPU time over the iteration, setup included.
	setup, cpu time.Duration
	rssMB      float64 // peak resident set during the iteration
	requests   int64
	reports    []rolo.Report
	cluster    *fleet.ClusterReport
}

// untracedIteration runs one iteration through rolo.Run or fleet.Run,
// checking every run's output.
func untracedIteration(w workload, seed int64, scratch string, v *verifier) (st iterStats) {
	isolate()
	reset := resetPeakRSS()
	c0 := processCPU()
	defer func() {
		st.cpu = processCPU() - c0
		if reset {
			st.rssMB = peakRSSMB()
		}
	}()
	it, err := timedSetup(&st.setup, func() (*iteration, error) { return w.setup(seed, nil) })
	if err != nil {
		v.check(0, fmt.Errorf("setup: %w", err), nil)
		return st
	}
	if w.shards > 0 {
		rep, err := runFleet(it.spec)
		if err == nil {
			err = checkCluster(&rep, it.spec.Shards)
		}
		if v.check(0, err, func() string { return clusterDigest(&rep) }) {
			st.requests = rep.Requests
			st.cluster = &rep
		}
	} else {
		for i, in := range it.runs {
			rep, err := w.runUntraced(in, scratch)
			if err == nil {
				err = checkReport(&rep, len(in.recs))
			}
			if v.check(i, err, func() string { return reportDigest(&rep) }) {
				st.requests += rep.Requests
			}
			st.reports = append(st.reports, rep)
		}
	}
	return st
}

// untracedLoop runs iterations back to back until the budget is spent.
func untracedLoop(w workload, seed int64, budget time.Duration, scratch string, v *verifier) []iterStats {
	var its []iterStats
	start := time.Now()
	for len(its) == 0 || time.Since(start) < budget {
		its = append(its, untracedIteration(w, seed, scratch, v))
	}
	return its
}

// endToEnd measures the untraced metrics: medians over the iterations.
func endToEnd(w workload, seed int64, budget time.Duration, scratch string, v *verifier) result {
	its := untracedLoop(w, seed, budget, scratch, v)
	var setups, rates, rsss []float64
	for _, it := range its {
		setups = append(setups, it.setup.Seconds())
		rates = append(rates, float64(it.requests)/it.cpu.Seconds())
		rsss = append(rsss, it.rssMB)
	}
	rss := median(rsss)
	if rsss[0] == 0 {
		rss = peakRSSMB() // the kernel refused the reset: whole-process peak
	}
	failedFrac := float64(v.failed) / float64(max(v.attempted, 1))
	fmt.Fprintf(os.Stderr, "%s seed %d: %d iterations, %d runs, failed_frac %g\n",
		w.name, seed, len(its), v.attempted, failedFrac)
	fmt.Fprintf(os.Stderr, "  setup_s %.6f  sim_req_per_cpu_s %.0f  peak_rss_mb %.1f  (medians; %d requests per iteration)\n",
		median(setups), median(rates), rss, its[0].requests)
	return result{Metrics: map[string]metric{
		"setup_s":           {median(setups), "s"},
		"sim_req_per_cpu_s": {median(rates), "req/cpu-s"},
		"peak_rss_mb":       {rss, "MB"},
	}}
}

// The peak resident set is taken per iteration, and the median
// reported: the peak of one process over many iterations is the maximum
// of many draws from the garbage collector's timing, and grows with the
// number of iterations a budget happens to fit.

// resetPeakRSS restarts the kernel's record of this process's peak
// resident set (VmHWM). It reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's peak resident set in MiB since the last
// reset: VmHWM, the high-water mark of this process's own address space
// (ru_maxrss would include the parent's peak, as Linux carries it across
// execve).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// verifier counts attempted and failed runs and checks report digests
// at seed 0.
type verifier struct {
	want      []string // recorded digests, nil off seed 0
	attempted int
	failed    int
	failures  []string
}

func newVerifier(workload string, seed int64) (*verifier, error) {
	v := &verifier{}
	if seed != 0 {
		return v, nil
	}
	var all map[string][]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	v.want = all[workload]
	if len(v.want) == 0 {
		return nil, fmt.Errorf("digests.json has no digests for %s", workload)
	}
	return v, nil
}

// check records run i's outcome: err, or else a digest mismatch at seed
// 0. It reports whether the run passed.
func (v *verifier) check(i int, err error, digest func() string) bool {
	v.attempted++
	if err == nil && v.want != nil && digest != nil {
		if i >= len(v.want) {
			err = fmt.Errorf("run %d has no recorded digest", i)
		} else if got := digest(); got != v.want[i] {
			err = fmt.Errorf("run %d report digest %s, recorded %s", i, got, v.want[i])
		}
	}
	if err == nil {
		return true
	}
	v.failed++
	if len(v.failures) < 10 {
		v.failures = append(v.failures, err.Error())
	}
	return false
}

// recordDigests runs one iteration of every workload at seed 0 and
// writes the digests of its reports.
func recordDigests(path, scratch string) error {
	all := make(map[string][]string)
	for _, w := range workloads {
		v := &verifier{}
		st := untracedIteration(w, 0, scratch, v)
		if v.failed > 0 {
			return fmt.Errorf("%s: %v", w.name, v.failures)
		}
		if st.cluster != nil {
			all[w.name] = []string{clusterDigest(st.cluster)}
		}
		for i := range st.reports {
			all[w.name] = append(all[w.name], reportDigest(&st.reports[i]))
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
