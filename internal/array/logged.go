package array

import (
	"github.com/rolo-storage/rolo/internal/intervals"
	"github.com/rolo-storage/rolo/internal/invariant"
	"github.com/rolo-storage/rolo/internal/logspace"
	"github.com/rolo-storage/rolo/internal/metrics"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
)

// Logged is the logging mechanism that GRAID, RoLo-P/R and RoLo-E share
// and embed: the log spaces writes are logged into, the per-pair dirty
// sets the log protects, the rotation, destage and bypass counters, the
// logging/destaging phase log, and the centralized destage. Policy stays
// in the controllers: where the log lives, when it rotates or destages,
// and which disks wake.
//
// Its methods are the tree's only rolosan:audited helpers: every log-space
// and dirty-set mutation goes through them and notifies the sanitizer's
// audit handle, which is nil (and free) unless a sanitizer is attached.
// Controllers hold no allocator or dirty set of their own, so the
// invariantguard rule holds by construction; only SanitizerState hands
// the allocators out.
//
// The helpers also keep running totals of the log bytes in use and the
// dirty bytes, so the sanitizer's per-event counters and the probes'
// gauges cost O(1); every sanitizer sweep checks the totals against the
// sums SanitizerState walks.
type Logged struct {
	// Reqs pools the controller's request joins and collects their
	// response times; Tel is the telemetry recorder (nil when off).
	Reqs Requests
	Tel  *telemetry.Recorder

	arr    *Array
	layout LogLayout
	spaces []*logspace.Space
	// dirty[p] holds pair p's data-region spans whose mirror copy is
	// stale — or, without primary backing, whose only current copy is
	// logged.
	dirty []intervals.Set
	// spare[p] holds pair p's last centralized-destage work set once its
	// copier drained it: empty, but holding the chunks the pops emptied.
	// takeDirt hands it back as the pair's next dirty set, so marks after
	// a destage reuse those chunks instead of allocating new ones.
	spare []intervals.Set
	// live[p] drains pair p's dirt for its pair-by-pair destager.
	live  []liveDirt
	san   *invariant.Audit
	phase metrics.PhaseLog

	rotations, destages int
	bypassed            int64
	// logUsed and dirtyBytes are the running totals of the spaces' used
	// bytes and the pairs' dirty bytes; logCap is the spaces' capacity.
	logUsed, dirtyBytes, logCap int64

	closed, destaging, logDown bool
}

// LogLayout describes a scheme's log for NewLogged.
type LogLayout struct {
	// Scheme names the controller in sanitizer snapshots.
	Scheme string
	// Spaces is the number of log allocators, each SpaceBytes large.
	Spaces     int
	SpaceBytes int64
	// PrimaryBacked is true when a healthy primary also holds the current
	// data of every dirty span (RoLo-P/R, GRAID); under RoLo-E the log
	// holds the only current copy.
	PrimaryBacked bool
	// ByGeneration is true when extents are tagged by destage generation
	// (GRAID) rather than by pair; the sanitizer then checks that the log
	// covers the dirt in aggregate.
	ByGeneration bool
}

var (
	_ invariant.Source      = (*Logged)(nil)
	_ invariant.Attachable  = (*Logged)(nil)
	_ telemetry.GaugeSource = (*Logged)(nil)
)

// NewLogged returns the log bookkeeping of a controller over arr.
func NewLogged(arr *Array, layout LogLayout) (*Logged, error) {
	l := &Logged{
		arr:    arr,
		layout: layout,
		spaces: make([]*logspace.Space, layout.Spaces),
		dirty:  make([]intervals.Set, arr.Geom.Pairs),
		spare:  make([]intervals.Set, arr.Geom.Pairs),
		live:   make([]liveDirt, arr.Geom.Pairs),
	}
	for p := range l.live {
		l.live[p] = liveDirt{l: l, p: p}
	}
	for i := range l.spaces {
		sp, err := logspace.New(layout.SpaceBytes)
		if err != nil {
			return nil, err
		}
		l.spaces[i] = sp
		l.logCap += sp.Capacity()
	}
	return l, nil
}

// Alloc reserves n log bytes tagged tag on space i.
//
// rolosan:audited — notifies the sanitizer ledger on success.
func (l *Logged) Alloc(i int, n int64, tag int) (logspace.Alloc, bool) {
	sp := l.spaces[i]
	a, ok := sp.Alloc(n, tag)
	if ok {
		l.logUsed += n
		l.san.Alloc(sp, tag, n)
	}
	return a, ok
}

// ReleaseTag reclaims every extent tagged tag on every space and returns
// the bytes freed; legal only once the tag's dirt has been destaged.
//
// rolosan:audited — the sanitizer checks reclamation safety on the spot.
func (l *Logged) ReleaseTag(tag int) int64 {
	var dirty, freed int64
	if !l.layout.ByGeneration && tag >= 0 && tag < len(l.dirty) {
		dirty = l.dirty[tag].Total()
	}
	for _, sp := range l.spaces {
		n := sp.ReleaseTag(tag)
		l.san.Release(sp, tag, n, dirty)
		freed += n
		l.logUsed -= n
	}
	return freed
}

// ResetSpace drops every extent on space i and returns the bytes it held.
// Without primary backing that is legal only with no dirt outstanding.
//
// rolosan:audited — the sanitizer checks reset safety on the spot.
func (l *Logged) ResetSpace(i int) int64 {
	sp := l.spaces[i]
	used := sp.UsedBytes()
	sp.Reset()
	l.logUsed -= used
	l.san.Reset(sp)
	return used
}

// MarkDirty records that pair p's [start, end) now depends on the log.
//
// rolosan:audited
func (l *Logged) MarkDirty(p int, start, end int64) {
	before := l.dirty[p].Total()
	l.dirty[p].Add(start, end)
	l.dirtyBytes += l.dirty[p].Total() - before
}

// CleanDirty removes [start, end) from pair p's dirt: an in-place write
// made both copies current.
//
// rolosan:audited
func (l *Logged) CleanDirty(p int, start, end int64) {
	before := l.dirty[p].Total()
	l.dirty[p].Remove(start, end)
	l.dirtyBytes -= before - l.dirty[p].Total()
}

// ClearDirty empties pair p's dirt after a rebuild made its mirror
// current.
//
// rolosan:audited
func (l *Logged) ClearDirty(p int) {
	l.dirtyBytes -= l.dirty[p].Total()
	l.dirty[p].Clear()
}

// takeDirt moves pair p's dirty spans into a destage work set; the
// pair's dirt restarts empty in its previous work set, chunks and all.
//
// rolosan:audited
func (l *Logged) takeDirt(p int) *intervals.Set {
	l.dirtyBytes -= l.dirty[p].Total()
	work := new(intervals.Set)
	*work, l.dirty[p], l.spare[p] = l.dirty[p], l.spare[p], intervals.Set{}
	return work
}

// keepDrained keeps pair p's work set, which its copier has just
// drained, with its chunks, for the pair's next takeDirt. The copier,
// idle and holding an empty set, is left with none.
//
// rolosan:audited
func (l *Logged) keepDrained(p int, work *intervals.Set) {
	l.spare[p], *work = *work, intervals.Set{}
}

// FreeBytes returns space i's free bytes.
func (l *Logged) FreeBytes(i int) int64 { return l.spaces[i].FreeBytes() }

// FreeFraction returns space i's free fraction.
func (l *Logged) FreeFraction(i int) float64 { return l.spaces[i].FreeFraction() }

// Capacity returns space i's capacity.
func (l *Logged) Capacity(i int) int64 { return l.spaces[i].Capacity() }

// TagBytes returns the live bytes tagged tag on space i.
func (l *Logged) TagBytes(i, tag int) int64 { return l.spaces[i].TagBytes(tag) }

// Dirty reports whether all of pair p's [start, end) is dirty.
func (l *Logged) Dirty(p int, start, end int64) bool { return l.dirty[p].Contains(start, end) }

// Destager returns a copier that drains pair p's dirt from its primary to
// its mirror, for schemes that destage pair by pair.
func (l *Logged) Destager(p int) *Copier {
	return l.arr.DataCopier(l.arr.Primaries[p], l.arr.Mirrors[p], &l.live[p])
}

// liveDirt is the WorkSet through which a pair-by-pair destager drains
// pair p's live dirty set, keeping the running dirty total in step.
type liveDirt struct {
	l *Logged
	p int
}

// PopFirst implements WorkSet.
//
// rolosan:audited
func (d *liveDirt) PopFirst(max int64) (intervals.Span, bool) {
	sp, ok := d.l.dirty[d.p].PopFirst(max)
	d.l.dirtyBytes -= sp.Len()
	return sp, ok
}

// BeginDestage opens a centralized destage: it sets the destaging flag,
// counts the destage, journals DestageStart and opens the destaging phase.
// The caller wakes disks only afterwards, since a spin-up charges its
// energy at once.
func (l *Logged) BeginDestage(now sim.Time) {
	l.destaging = true
	l.destages++
	if l.Tel != nil {
		l.Tel.DestageStart(now, -1)
	}
	l.phase.Begin(metrics.Destaging, now, l.arr.TotalEnergyJ())
}

// DestageEach moves each pair's dirt, in pair order, into a work set,
// kicks the copier that copier(p, work) returns, and calls done once
// every pair's copier has first drained. A drained work set goes back to
// its pair, chunks and all, for the next destage.
func (l *Logged) DestageEach(copier func(p int, work *intervals.Set) *Copier, done func(now sim.Time)) {
	join := NewJoin(len(l.dirty), done)
	for p := range l.dirty {
		work := l.takeDirt(p)
		cp := copier(p, work)
		fired := false
		cp.OnDrained = func(at sim.Time) {
			if !fired {
				fired = true
				l.keepDrained(p, work)
				join.Done(at)
			}
		}
		cp.Kick()
	}
}

// EndDestage closes a centralized destage after the caller reclaimed
// freed log bytes: it journals DestageDone and LogInvalidate and opens
// the next logging phase.
func (l *Logged) EndDestage(now sim.Time, freed int64) {
	l.destaging = false
	if l.Tel != nil {
		l.Tel.DestageDone(now, -1)
		if freed > 0 {
			l.Tel.LogInvalidate(now, -1, freed)
		}
	}
	l.BeginLogging(now)
}

// BeginLogging opens a logging phase.
func (l *Logged) BeginLogging(now sim.Time) {
	l.phase.Begin(metrics.Logging, now, l.arr.TotalEnergyJ())
}

// Rotated counts a rotation and journals it; pair is the new on-duty
// logger.
func (l *Logged) Rotated(now sim.Time, pair int) {
	l.rotations++
	if l.Tel != nil {
		l.Tel.Rotation(now, pair)
	}
}

// Bypassed counts a write that bypassed the log.
func (l *Logged) Bypassed() { l.bypassed++ }

// SetLogDown records whether a dedicated log device is down; while it is,
// the sanitizer suspends its aggregate log-coverage check.
func (l *Logged) SetLogDown(down bool) { l.logDown = down }

// LogDown reports whether the dedicated log device is down.
func (l *Logged) LogDown() bool { return l.logDown }

// Destaging reports whether a centralized destage is in progress.
func (l *Logged) Destaging() bool { return l.destaging }

// Closed reports whether the run has ended.
func (l *Logged) Closed() bool { return l.closed }

// Rotations returns the number of logger rotations.
func (l *Logged) Rotations() int { return l.rotations }

// Destages returns the number of centralized destages.
func (l *Logged) Destages() int { return l.destages }

// DirectWrites returns the number of writes that bypassed the log.
func (l *Logged) DirectWrites() int64 { return l.bypassed }

// Phases returns the logging/destaging phase log.
func (l *Logged) Phases() *metrics.PhaseLog { return &l.phase }

// Responses returns the response-time statistics.
func (l *Logged) Responses() *metrics.ResponseStats { return &l.Reqs.Resp }

// SetTelemetry implements telemetry.Instrumented.
func (l *Logged) SetTelemetry(rec *telemetry.Recorder) {
	l.Tel = rec
	l.Reqs.SetTelemetry(rec)
}

// Close implements the array.Controller teardown: it ends the open phase.
func (l *Logged) Close(now sim.Time) {
	l.closed = true
	l.phase.End(now, l.arr.TotalEnergyJ())
}

// TelemetryGauges implements telemetry.GaugeSource: occupancy summed over
// the log spaces, and the dirty bytes awaiting destage.
func (l *Logged) TelemetryGauges() (logUsed, logCap, backlog int64) {
	return l.logUsed, l.logCap, l.dirtyBytes
}

// SetSanitizer implements invariant.Attachable.
func (l *Logged) SetSanitizer(a *invariant.Audit) { l.san = a }

// SanitizerCounters implements invariant.Source with the running totals.
func (l *Logged) SanitizerCounters() invariant.Counters {
	return invariant.Counters{
		Rotations:  l.rotations,
		Destages:   l.destages,
		DirtyBytes: l.dirtyBytes,
		LogUsed:    l.logUsed,
	}
}

// SanitizerState implements invariant.Source. Its per-pair dirt and log
// total are walked, and its Counters are the running totals, so a sweep
// can check one against the other.
func (l *Logged) SanitizerState() invariant.State {
	pairs := len(l.dirty)
	st := invariant.State{
		Scheme:           l.layout.Scheme,
		Pairs:            pairs,
		Spaces:           append([]*logspace.Space(nil), l.spaces...),
		DirtyBytes:       make([]int64, pairs),
		LogPrimaryBacked: l.layout.PrimaryBacked,
		PrimaryOK:        make([]bool, pairs),
		LogDown:          l.logDown,
		Counters:         l.SanitizerCounters(),
	}
	if !l.layout.ByGeneration {
		st.LogByPair = make([]int64, pairs)
	}
	for p := range pairs {
		st.DirtyBytes[p] = l.dirty[p].Total()
		st.PrimaryOK[p] = !l.arr.Primaries[p].Failed()
	}
	for _, sp := range l.spaces {
		st.LogTotal += sp.UsedBytes()
		if st.LogByPair == nil {
			continue
		}
		for _, tag := range sp.Tags() {
			if tag >= 0 && tag < pairs {
				st.LogByPair[tag] += sp.TagBytes(tag)
			}
		}
	}
	return st
}
