// Package telemetry is the simulator's observability layer: a structured
// event journal, exact log-bucketed latency histograms, and periodic
// time-series probes.
//
// The journal is built around three pieces:
//
//   - Event, a typed record of one thing that happened inside a run
//     (a request completing, a logger rotation, a destage
//     starting or draining, a disk spinning up or down, a log-extent
//     invalidation, a cache hit or miss, a periodic probe sample);
//   - Sink, the pluggable consumer interface (JSONL for offline analysis
//     with cmd/rolostat, counting for tests and cheap live accounting);
//   - Recorder, the nil-safe emission front end that controllers hold.
//
// Overhead guarantees: a nil *Recorder (no sink configured) is the
// disabled state — every emission helper returns before constructing an
// Event, Events are plain value structs, and no goroutines or locks are
// involved, so a run with telemetry disabled performs no journal work and
// allocates nothing. Because sinks observe the simulation but never
// schedule events or consume randomness, enabling a sink cannot perturb a
// run's trajectory: the same configuration and trace always produce the
// same Report and, line for line, the same journal.
package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"github.com/rolo-storage/rolo/internal/sim"
)

// Kind enumerates the event types in the journal taxonomy.
type Kind int

// The event taxonomy. RequestDone covers the foreground I/O path with one
// event per request, carrying its class, size and latency, so the arrival
// time is At - LatencyUs; Rotation/DestageStart/DestageDone/LogInvalidate
// cover the logging life cycle; SpinUp/SpinDown cover the power state
// machine; CacheHit and CacheMiss cover both the controller RAM cache and
// RoLo-E's on-duty read cache; Probe carries a periodic time-series
// sample.
const (
	KindRequestDone Kind = iota + 1
	KindRotation
	KindDestageStart
	KindDestageDone
	KindSpinUp
	KindSpinDown
	KindLogInvalidate
	KindCacheHit
	KindCacheMiss
	KindProbe

	numKinds = int(KindProbe) + 1
)

// Kinds lists every event kind in declaration order.
var Kinds = []Kind{
	KindRequestDone, KindRotation, KindDestageStart, KindDestageDone,
	KindSpinUp, KindSpinDown, KindLogInvalidate, KindCacheHit,
	KindCacheMiss, KindProbe,
}

// String returns the journal name of the kind.
func (k Kind) String() string {
	switch k {
	case KindRequestDone:
		return "RequestDone"
	case KindRotation:
		return "Rotation"
	case KindDestageStart:
		return "DestageStart"
	case KindDestageDone:
		return "DestageDone"
	case KindSpinUp:
		return "SpinUp"
	case KindSpinDown:
		return "SpinDown"
	case KindLogInvalidate:
		return "LogInvalidate"
	case KindCacheHit:
		return "CacheHit"
	case KindCacheMiss:
		return "CacheMiss"
	case KindProbe:
		return "Probe"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a kind name as written by String.
func ParseKind(name string) (Kind, error) {
	for _, k := range Kinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown event kind %q", name)
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, k.String()), nil
}

// UnmarshalJSON parses a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("telemetry: kind: %w", err)
	}
	v, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// Event is one journal record. It is a flat union: which optional fields
// are meaningful depends on Kind (see the field comments). Disk and Pair
// are -1 when not applicable.
type Event struct {
	// At is the simulation time of the event in microseconds.
	At sim.Time `json:"at"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Disk is the disk ID for SpinUp/SpinDown events, -1 otherwise.
	Disk int `json:"disk,omitempty"`
	// Pair is the pair/logger index for Rotation (new on-duty logger),
	// DestageStart/Done and LogInvalidate (destaged pair, or -1 for a
	// centralized, array-wide destage), and CacheHit/Miss on the RoLo-E
	// path (on-duty pair; -1 for the controller RAM cache).
	Pair int `json:"pair,omitempty"`
	// Write marks request and cache events on the write path.
	Write bool `json:"write,omitempty"`
	// Bytes is the request size (RequestDone/cache events) or the number
	// of log bytes reclaimed (LogInvalidate).
	Bytes int64 `json:"bytes,omitempty"`
	// LatencyUs is the response time in microseconds (RequestDone only);
	// the request arrived at At - LatencyUs.
	LatencyUs int64 `json:"lat_us,omitempty"`
	// States is the per-disk power-state string for Probe events: one
	// character per disk ID (A=active, I=idle, S=standby, U=spinning up,
	// D=spinning down, F=failed).
	States string `json:"states,omitempty"`
	// LogUsed/LogCap are the occupied and total logging-space bytes at a
	// Probe sample, summed over the scheme's active logging allocators.
	LogUsed int64 `json:"log_used,omitempty"`
	LogCap  int64 `json:"log_cap,omitempty"`
	// Backlog is the destage backlog in bytes at a Probe sample.
	Backlog int64 `json:"backlog,omitempty"`
}

// Sink consumes journal events. Emit is called in simulation-time order
// (timestamps are non-decreasing) from the single simulation goroutine;
// sinks need no locking. A sink must not schedule simulation events.
type Sink interface {
	Emit(ev Event)
}

// Flusher is implemented by sinks with buffered output; rolo.Run flushes
// such sinks when a run completes.
type Flusher interface {
	Flush() error
}

// Recorder is the nil-safe emission front end. Controllers hold a
// *Recorder and call the typed helpers below; a nil receiver (telemetry
// disabled) returns immediately from every helper without constructing an
// Event.
type Recorder struct {
	sink Sink
}

// NewRecorder wraps a sink. A nil sink yields a nil recorder, the
// disabled state.
func NewRecorder(s Sink) *Recorder {
	if s == nil {
		return nil
	}
	return &Recorder{sink: s}
}

// Enabled reports whether events are being recorded.
func (r *Recorder) Enabled() bool { return r != nil && r.sink != nil }

// Emit forwards an event to the sink, if any.
func (r *Recorder) Emit(ev Event) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.Emit(ev)
}

// RequestDone records a logical request of the given class and size
// completing with the given latency; it arrived at now - latency.
func (r *Recorder) RequestDone(now sim.Time, write bool, bytes int64, latency sim.Time) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.Emit(Event{At: now, Kind: KindRequestDone, Disk: -1, Pair: -1, Write: write, Bytes: bytes, LatencyUs: int64(latency)})
}

// Rotation records a logger rotation; pair is the newly on-duty logger.
func (r *Recorder) Rotation(now sim.Time, pair int) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.Emit(Event{At: now, Kind: KindRotation, Disk: -1, Pair: pair})
}

// DestageStart records a destage beginning for the given pair (-1 for a
// centralized, array-wide destage).
func (r *Recorder) DestageStart(now sim.Time, pair int) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.Emit(Event{At: now, Kind: KindDestageStart, Disk: -1, Pair: pair})
}

// DestageDone records a destage draining for the given pair (-1 for a
// centralized destage).
func (r *Recorder) DestageDone(now sim.Time, pair int) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.Emit(Event{At: now, Kind: KindDestageDone, Disk: -1, Pair: pair})
}

// SpinUp records disk diskID beginning its spin-up transition.
func (r *Recorder) SpinUp(now sim.Time, diskID int) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.Emit(Event{At: now, Kind: KindSpinUp, Disk: diskID, Pair: -1})
}

// SpinDown records disk diskID beginning its spin-down transition.
func (r *Recorder) SpinDown(now sim.Time, diskID int) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.Emit(Event{At: now, Kind: KindSpinDown, Disk: diskID, Pair: -1})
}

// LogInvalidate records bytes of log space reclaimed on behalf of pair
// (-1 when the reclamation is not pair-scoped, e.g. GRAID generations).
func (r *Recorder) LogInvalidate(now sim.Time, pair int, bytes int64) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.Emit(Event{At: now, Kind: KindLogInvalidate, Disk: -1, Pair: pair, Bytes: bytes})
}

// CacheHit records a read served from a cache (pair -1 for the controller
// RAM cache, or the on-duty pair for RoLo-E's log-space cache).
func (r *Recorder) CacheHit(now sim.Time, pair int, bytes int64) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.Emit(Event{At: now, Kind: KindCacheHit, Disk: -1, Pair: pair, Bytes: bytes})
}

// CacheMiss records a read that missed a cache.
func (r *Recorder) CacheMiss(now sim.Time, pair int, bytes int64) {
	if r == nil || r.sink == nil {
		return
	}
	r.sink.Emit(Event{At: now, Kind: KindCacheMiss, Disk: -1, Pair: pair, Bytes: bytes})
}

// Instrumented is implemented by controllers that accept a telemetry
// recorder. rolo.Run feeds the configured recorder to every controller
// that supports it.
type Instrumented interface {
	SetTelemetry(*Recorder)
}

// Config selects the telemetry behavior of one simulation run. The zero
// value disables telemetry entirely.
type Config struct {
	// Sink receives the structured event journal; nil disables it.
	Sink Sink
	// ProbeInterval enables periodic time-series probes at this spacing
	// (disk power states, log occupancy, destage backlog); 0 disables
	// them. Probe events go to Sink; occupancy/backlog peaks are reported
	// even without a sink.
	ProbeInterval sim.Time
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ProbeInterval < 0 {
		return fmt.Errorf("telemetry: negative probe interval %v", c.ProbeInterval)
	}
	return nil
}

// CountingSink counts events per kind. The zero value is ready to use.
type CountingSink struct {
	counts [numKinds]int64
	total  int64
}

// Emit implements Sink.
func (s *CountingSink) Emit(ev Event) {
	if k := int(ev.Kind); k >= 0 && k < numKinds {
		s.counts[k]++
	}
	s.total++
}

// Count returns the number of events of the given kind.
func (s *CountingSink) Count(k Kind) int64 {
	if int(k) < 0 || int(k) >= numKinds {
		return 0
	}
	return s.counts[k]
}

// Total returns the total number of events observed.
func (s *CountingSink) Total() int64 { return s.total }

// TeeSink fans events out to several sinks in order.
type TeeSink []Sink

// Emit implements Sink.
func (t TeeSink) Emit(ev Event) {
	for _, s := range t {
		s.Emit(ev)
	}
}

// Flush implements Flusher. Every buffered member is flushed even when an
// earlier one fails — stopping at the first error would silently strand
// buffered events in the later sinks — and the failures are joined.
func (t TeeSink) Flush() error {
	var errs []error
	for _, s := range t {
		if f, ok := s.(Flusher); ok {
			if err := f.Flush(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// AppendEvent appends the canonical JSONL encoding of ev — one JSON
// object terminated by '\n' — to dst and returns the extended slice.
// Field order is fixed and zero/absent optional fields are omitted, so
// the byte stream is a deterministic function of the event sequence — the
// determinism regression tests and the rotated-journal byte-equivalence
// gate compare journals byte for byte. JSONLSink and the rotating
// journal writer share this single encoder; it never allocates beyond
// growing dst.
func AppendEvent(dst []byte, ev Event) []byte {
	dst = append(dst, `{"at":`...)
	dst = strconv.AppendInt(dst, int64(ev.At), 10)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, ev.Kind.String()...)
	dst = append(dst, '"')
	if ev.Disk >= 0 {
		dst = append(dst, `,"disk":`...)
		dst = strconv.AppendInt(dst, int64(ev.Disk), 10)
	}
	if ev.Pair >= 0 {
		dst = append(dst, `,"pair":`...)
		dst = strconv.AppendInt(dst, int64(ev.Pair), 10)
	}
	if ev.Write {
		dst = append(dst, `,"write":true`...)
	}
	if ev.Bytes != 0 {
		dst = append(dst, `,"bytes":`...)
		dst = strconv.AppendInt(dst, ev.Bytes, 10)
	}
	if ev.LatencyUs != 0 {
		dst = append(dst, `,"lat_us":`...)
		dst = strconv.AppendInt(dst, ev.LatencyUs, 10)
	}
	if ev.States != "" {
		dst = append(dst, `,"states":`...)
		dst = strconv.AppendQuote(dst, ev.States)
	}
	if ev.LogCap != 0 {
		dst = append(dst, `,"log_used":`...)
		dst = strconv.AppendInt(dst, ev.LogUsed, 10)
		dst = append(dst, `,"log_cap":`...)
		dst = strconv.AppendInt(dst, ev.LogCap, 10)
	}
	if ev.Backlog != 0 {
		dst = append(dst, `,"backlog":`...)
		dst = strconv.AppendInt(dst, ev.Backlog, 10)
	}
	dst = append(dst, '}', '\n')
	return dst
}

// UnmarshalEvent decodes one JSONL journal line as written by
// AppendEvent. Absent disk/pair fields decode as -1, matching the
// writer's omission rule.
func UnmarshalEvent(line []byte) (Event, error) {
	ev := Event{Disk: -1, Pair: -1}
	if err := json.Unmarshal(line, &ev); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// JSONLSink writes one JSON object per event to an io.Writer, encoding
// with AppendEvent into a sink-owned scratch buffer so the steady-state
// emission path performs no per-event allocation (pinned by
// TestJSONLSinkZeroAlloc and BenchmarkCoreTelemetryEncode).
type JSONLSink struct {
	w       *bufio.Writer
	scratch []byte
}

// NewJSONLSink buffers writes to w. Call Flush (or rely on rolo.Run's
// end-of-run flush) before reading the output.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 64<<10), scratch: make([]byte, 0, 256)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(ev Event) {
	s.scratch = AppendEvent(s.scratch[:0], ev)
	s.w.Write(s.scratch)
}

// Flush implements Flusher.
func (s *JSONLSink) Flush() error { return s.w.Flush() }

// ParseJournal reads a JSONL journal back into an in-memory event slice.
// For journals too large to hold whole — or rotated, compressed journal
// directories — use the streaming iterator in telemetry/journal instead.
func ParseJournal(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		ev, err := UnmarshalEvent(raw)
		if err != nil {
			return nil, fmt.Errorf("telemetry: journal line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: journal line %d: %w", line, err)
	}
	return out, nil
}
