// Package metrics collects simulation observables: request response times,
// logging/destaging phase intervals with energy snapshots (for the paper's
// destaging interval ratio and destaging energy ratio), and per-state disk
// time fractions.
package metrics

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
)

// ClassStats accumulates response times for one request class (reads or
// writes) in an exact log-bucketed histogram, which keeps the count, sum
// and exact max beside the buckets. Unlike the sampling reservoir it
// replaced, the histogram counts every response, so percentiles carry no
// sampling error (only the ≤1% bucket-resolution error) and are
// deterministic without any RNG.
type ClassStats struct {
	hist telemetry.Histogram
}

// Add records one response time.
func (c *ClassStats) Add(rt sim.Time) { c.hist.Observe(int64(rt)) }

// Count returns the number of recorded responses.
func (c *ClassStats) Count() int64 { return c.hist.Total() }

// Mean returns the mean response time in milliseconds.
func (c *ClassStats) Mean() float64 { return meanMs(c.hist.Sum(), c.hist.Total()) }

// Max returns the largest response time observed.
func (c *ClassStats) Max() sim.Time { return sim.Time(c.hist.Max()) }

// Percentile returns the p-th percentile (0 < p <= 100) in milliseconds.
func (c *ClassStats) Percentile(p float64) float64 {
	return sim.Time(c.hist.Quantile(p)).Milliseconds()
}

// Histogram exposes the underlying latency histogram.
func (c *ClassStats) Histogram() *telemetry.Histogram { return &c.hist }

// meanMs is the mean in milliseconds of n responses summing to sumUs.
func meanMs(sumUs float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return sumUs / float64(n) / float64(sim.Millisecond)
}

// ResponseStats accumulates request response times per class (read or
// write); the combined statistics are the two classes' merge. The zero
// value is ready to use.
type ResponseStats struct {
	read  ClassStats
	write ClassStats
}

// AddClass records one response time for a read (write=false) or write.
func (r *ResponseStats) AddClass(rt sim.Time, write bool) {
	if write {
		r.write.Add(rt)
	} else {
		r.read.Add(rt)
	}
}

// Count returns the number of recorded responses.
func (r *ResponseStats) Count() int64 { return r.read.Count() + r.write.Count() }

// Mean returns the mean response time in milliseconds. Latencies are
// whole microseconds, so each class's sum is an exact float64 integer
// and their total equals a single running sum.
func (r *ResponseStats) Mean() float64 {
	return meanMs(r.read.hist.Sum()+r.write.hist.Sum(), r.Count())
}

// Max returns the largest response time observed.
func (r *ResponseStats) Max() sim.Time { return max(r.read.Max(), r.write.Max()) }

// Percentile returns the p-th percentile (0 < p <= 100) in milliseconds
// over all responses. It merges the classes; to read several combined
// statistics, take All once.
func (r *ResponseStats) Percentile(p float64) float64 { return r.All().Percentile(p) }

// All returns the combined (read+write) statistics: a fresh merge of the
// two classes, exactly what one histogram fed every response would hold,
// because both share one bucket layout.
func (r *ResponseStats) All() *ClassStats {
	all := &ClassStats{}
	all.hist.Merge(&r.read.hist)
	all.hist.Merge(&r.write.hist)
	return all
}

// Reads returns the read-class statistics.
func (r *ResponseStats) Reads() *ClassStats { return &r.read }

// Writes returns the write-class statistics.
func (r *ResponseStats) Writes() *ClassStats { return &r.write }

// Phase labels a period of a logging cycle.
type Phase int

// Phases of a logging cycle.
const (
	Logging Phase = iota + 1
	Destaging
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case Logging:
		return "logging"
	case Destaging:
		return "destaging"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Interval is one completed phase with its energy consumption.
type Interval struct {
	Phase   Phase
	Start   sim.Time
	End     sim.Time
	EnergyJ float64 // array energy consumed during the interval
}

// Duration returns the interval length.
func (iv Interval) Duration() sim.Time { return iv.End - iv.Start }

// PhaseLog records the alternation of logging and destaging periods.
// Controllers call Begin at each phase boundary with the array's cumulative
// energy so interval energy can be computed by difference.
type PhaseLog struct {
	intervals []Interval
	open      bool
	cur       Interval
	curEnergy float64
}

// Begin closes any open phase and starts a new one. energyJ is the array's
// cumulative energy at this instant.
func (l *PhaseLog) Begin(p Phase, now sim.Time, energyJ float64) {
	l.End(now, energyJ)
	l.open = true
	l.cur = Interval{Phase: p, Start: now}
	l.curEnergy = energyJ
}

// End closes the open phase, if any.
func (l *PhaseLog) End(now sim.Time, energyJ float64) {
	if !l.open {
		return
	}
	l.cur.End = now
	l.cur.EnergyJ = energyJ - l.curEnergy
	l.intervals = append(l.intervals, l.cur)
	l.open = false
}

// Len returns the number of completed intervals.
func (l *PhaseLog) Len() int { return len(l.intervals) }

// At returns the i-th completed interval, 0 <= i < Len(). Together with Len
// it lets callers scan the log without the copy Intervals() makes.
func (l *PhaseLog) At(i int) Interval { return l.intervals[i] }

// Intervals returns a copy of the completed intervals. It allocates; report
// generators may use it freely, but anything called per event should scan
// with Len/At instead.
func (l *PhaseLog) Intervals() []Interval {
	out := make([]Interval, len(l.intervals))
	copy(out, l.intervals)
	return out
}

// Totals sums duration and energy per phase over completed intervals.
func (l *PhaseLog) Totals() (dur map[Phase]sim.Time, energy map[Phase]float64) {
	dur = make(map[Phase]sim.Time)
	energy = make(map[Phase]float64)
	for _, iv := range l.intervals {
		dur[iv.Phase] += iv.Duration()
		energy[iv.Phase] += iv.EnergyJ
	}
	return dur, energy
}

// DestagingIntervalRatio is the fraction of completed-cycle time spent
// destaging — the paper's Figure 2(c) metric.
func (l *PhaseLog) DestagingIntervalRatio() float64 {
	dur, _ := l.Totals()
	total := dur[Logging] + dur[Destaging]
	if total == 0 {
		return 0
	}
	return float64(dur[Destaging]) / float64(total)
}

// DestagingEnergyRatio is the fraction of completed-cycle energy consumed
// during destaging — the paper's Figure 2(d) metric.
func (l *PhaseLog) DestagingEnergyRatio() float64 {
	_, energy := l.Totals()
	total := energy[Logging] + energy[Destaging]
	if total <= 0 {
		return 0
	}
	return energy[Destaging] / total
}
