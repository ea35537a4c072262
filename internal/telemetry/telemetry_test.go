package telemetry

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
)

func TestKindStringsRoundTrip(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind accepted garbage")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind renders empty")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder enabled")
	}
	// Every helper must be a no-op on a nil receiver.
	r.RequestDone(2, false, 10, 5)
	r.Rotation(3, 1)
	r.DestageStart(4, 0)
	r.DestageDone(5, 0)
	r.SpinUp(6, 2)
	r.SpinDown(7, 2)
	r.LogInvalidate(8, 1, 100)
	r.CacheHit(9, -1, 4096)
	r.CacheMiss(10, -1, 4096)
	r.Emit(Event{At: 11, Kind: KindProbe})
	if NewRecorder(nil) != nil {
		t.Fatal("NewRecorder(nil) not nil")
	}
}

func TestNilRecorderAllocatesNothing(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.RequestDone(2, true, 4096, 100)
		r.SpinUp(3, 7)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocates %.1f objects/op", allocs)
	}
}

func TestCountingSink(t *testing.T) {
	var cs CountingSink
	r := NewRecorder(&cs)
	if !r.Enabled() {
		t.Fatal("recorder with sink not enabled")
	}
	r.Rotation(1, 0)
	r.Rotation(2, 1)
	r.SpinUp(3, 4)
	if cs.Count(KindRotation) != 2 || cs.Count(KindSpinUp) != 1 || cs.Total() != 3 {
		t.Fatalf("counts: rot=%d up=%d total=%d",
			cs.Count(KindRotation), cs.Count(KindSpinUp), cs.Total())
	}
	if cs.Count(Kind(99)) != 0 {
		t.Fatal("out-of-range kind counted")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	r := NewRecorder(s)
	events := []func(){
		func() { r.RequestDone(5000, true, 8192, 4900) },
		func() { r.Rotation(6000, 3) },
		func() { r.DestageStart(6000, 3) },
		func() { r.DestageDone(9000, 3) },
		func() { r.SpinUp(9500, 12) },
		func() { r.SpinDown(20000, 12) },
		func() { r.LogInvalidate(9000, 3, 1<<20) },
		func() { r.CacheHit(9100, -1, 4096) },
		func() { r.CacheMiss(9200, 0, 512) },
		func() {
			r.Emit(Event{At: 10000, Kind: KindProbe, Disk: -1, Pair: -1,
				States: "AISUD", LogUsed: 5, LogCap: 10, Backlog: 7})
		},
	}
	for _, emit := range events {
		emit()
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("parsed %d events, wrote %d", len(got), len(events))
	}
	want := []Event{
		{At: 5000, Kind: KindRequestDone, Disk: -1, Pair: -1, Write: true, Bytes: 8192, LatencyUs: 4900},
		{At: 6000, Kind: KindRotation, Disk: -1, Pair: 3},
		{At: 6000, Kind: KindDestageStart, Disk: -1, Pair: 3},
		{At: 9000, Kind: KindDestageDone, Disk: -1, Pair: 3},
		{At: 9500, Kind: KindSpinUp, Disk: 12, Pair: -1},
		{At: 20000, Kind: KindSpinDown, Disk: 12, Pair: -1},
		{At: 9000, Kind: KindLogInvalidate, Disk: -1, Pair: 3, Bytes: 1 << 20},
		{At: 9100, Kind: KindCacheHit, Disk: -1, Pair: -1, Bytes: 4096},
		{At: 9200, Kind: KindCacheMiss, Disk: -1, Pair: 0, Bytes: 512},
		{At: 10000, Kind: KindProbe, Disk: -1, Pair: -1, States: "AISUD", LogUsed: 5, LogCap: 10, Backlog: 7},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJSONLDeterministicBytes(t *testing.T) {
	emitAll := func() string {
		var buf bytes.Buffer
		s := NewJSONLSink(&buf)
		r := NewRecorder(s)
		r.RequestDone(2, false, 512, 1)
		r.SpinUp(3, 0)
		_ = s.Flush()
		return buf.String()
	}
	a, b := emitAll(), emitAll()
	if a != b {
		t.Fatalf("same events produced different bytes:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `"kind":"SpinUp"`) {
		t.Fatalf("unexpected journal contents: %s", a)
	}
}

func TestParseJournalRejectsGarbage(t *testing.T) {
	if _, err := ParseJournal(strings.NewReader("{nope\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
	evs, err := ParseJournal(strings.NewReader(""))
	if err != nil || len(evs) != 0 {
		t.Fatalf("empty journal: %v, %d events", err, len(evs))
	}
}

func TestTeeSink(t *testing.T) {
	var a, b CountingSink
	var buf bytes.Buffer
	j := NewJSONLSink(&buf)
	tee := TeeSink{&a, &b, j}
	r := NewRecorder(tee)
	r.Rotation(1, 0)
	if err := tee.Flush(); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 1 || b.Total() != 1 || buf.Len() == 0 {
		t.Fatal("tee did not fan out")
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for _, k := range Kinds {
		b, err := k.MarshalJSON()
		if err != nil {
			t.Fatalf("MarshalJSON(%v): %v", k, err)
		}
		if want := `"` + k.String() + `"`; string(b) != want {
			t.Fatalf("MarshalJSON(%v) = %s, want %s", k, b, want)
		}
		var got Kind
		if err := got.UnmarshalJSON(b); err != nil || got != k {
			t.Fatalf("UnmarshalJSON(%s) = %v, %v", b, got, err)
		}
	}
	var k Kind
	if err := k.UnmarshalJSON([]byte(`"nope"`)); err == nil {
		t.Fatal("UnmarshalJSON accepted an unknown kind")
	}
	if err := k.UnmarshalJSON([]byte(`17`)); err == nil {
		t.Fatal("UnmarshalJSON accepted a non-string kind")
	}
}

// TestJSONLSinkZeroAlloc pins the hot-path guarantee the async pipeline
// builds on: once the sink's scratch buffer has grown to cover the
// largest event, Emit allocates nothing — including for events whose
// States string needs quoting, which used to cost one allocation per
// event.
func TestJSONLSinkZeroAlloc(t *testing.T) {
	s := NewJSONLSink(io.Discard)
	evs := []Event{
		{At: 2, Kind: KindRequestDone, Disk: -1, Pair: -1, Write: true, Bytes: 1 << 16, LatencyUs: 1234},
		{At: 3, Kind: KindProbe, Disk: -1, Pair: -1,
			States:  `AISUDAISUDAISUDAISUD"quoted\escape"AISUD`,
			LogUsed: 1 << 40, LogCap: 1 << 42, Backlog: 1 << 30},
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		s.Emit(evs[i%len(evs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("JSONLSink.Emit allocates %.1f objects/op, want 0", allocs)
	}
}

// failingFlusher is a sink whose Flush always fails.
type failingFlusher struct {
	CountingSink
	err error
}

func (f *failingFlusher) Flush() error { return f.err }

func TestTeeSinkFlushesAllMembersDespiteError(t *testing.T) {
	// A failing member must not short-circuit the tee: later members
	// still flush, and every error is reported.
	errA := errors.New("sink A broke")
	errC := errors.New("sink C broke")
	a := &failingFlusher{err: errA}
	var buf bytes.Buffer
	b := NewJSONLSink(&buf)
	c := &failingFlusher{err: errC}
	tee := TeeSink{a, b, c}
	NewRecorder(tee).Rotation(1, 0)

	err := tee.Flush()
	if err == nil {
		t.Fatal("tee flush swallowed member errors")
	}
	if !errors.Is(err, errA) || !errors.Is(err, errC) {
		t.Fatalf("joined error %v missing a member error", err)
	}
	if buf.Len() == 0 {
		t.Fatal("healthy member was not flushed after an earlier member failed")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	if err := (Config{ProbeInterval: -sim.Second}).Validate(); err == nil {
		t.Fatal("negative probe interval accepted")
	}
}
