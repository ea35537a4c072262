package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the ID of the
// span that caused it (0 for a root); Run ties the spans of one
// simulation together.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    int           `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark exits. It is safe
// for concurrent use: fleet shards record from several goroutines.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its ID. A nil log records nothing.
func (l *spanLog) begin(name string, parent, run int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.origin)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Run: run, Name: name, Start: now, End: -1})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.origin)
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children of one parent may
// overlap (fleet shards run concurrently), so the covered part is the
// union of the children's intervals, clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		cur := s.Start // covered up to here
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// percentile returns the nearest-rank p-th percentile of samples, and
// whether it may be reported: only when at least ten samples lie beyond
// it, so the value is not set by a handful of outliers.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(n))) - 1
	k = min(max(k, 0), n-1)
	return s[k], n-1-k >= 10
}

// median of samples (0 when empty).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// callAgg aggregates one per-call boundary (a controller Submit, a sink
// Emit, a cluster Fold) into count, total and max, instead of one span
// per call.
type callAgg struct {
	N     int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Max   time.Duration `json:"max_ns"`
}

func (a *callAgg) add(d time.Duration) {
	a.N++
	a.Total += d
	a.Max = max(a.Max, d)
}

func (a *callAgg) merge(b callAgg) {
	a.N += b.N
	a.Total += b.Total
	a.Max = max(a.Max, b.Max)
}

// meanNs is the mean call time in nanoseconds (0 with no calls).
func (a callAgg) meanNs() float64 {
	if a.N == 0 {
		return 0
	}
	return float64(a.Total.Nanoseconds()) / float64(a.N)
}
