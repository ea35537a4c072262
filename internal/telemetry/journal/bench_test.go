package journal

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
)

// nullWriter swallows lines; it isolates the producer-side cost of the
// sinks from disk speed.
type nullWriter struct{}

func (nullWriter) WriteEvent([]byte, sim.Time) error { return nil }
func (nullWriter) Flush() error                      { return nil }
func (nullWriter) Close() error                      { return nil }

// nullIOWriter is the io.Writer equivalent for the synchronous sink.
type nullIOWriter struct{}

func (nullIOWriter) Write(p []byte) (int, error) { return len(p), nil }

var benchEvents = genBenchEvents()

func genBenchEvents() [7]telemetry.Event {
	return [7]telemetry.Event{
		{At: 1400, Kind: telemetry.KindRequestDone, Disk: -1, Pair: -1, Write: true, Bytes: 65536, LatencyUs: 400},
		{At: 2000, Kind: telemetry.KindRotation, Disk: -1, Pair: 7},
		{At: 2100, Kind: telemetry.KindSpinUp, Disk: 13, Pair: -1},
		{At: 2200, Kind: telemetry.KindCacheHit, Disk: -1, Pair: 0, Bytes: 4096},
		{At: 2300, Kind: telemetry.KindLogInvalidate, Disk: -1, Pair: 3, Bytes: 1 << 20},
		{At: 2400, Kind: telemetry.KindProbe, Disk: -1, Pair: -1, States: "AISUDAISUD", LogUsed: 100, LogCap: 1000, Backlog: 5},
		{At: 2500, Kind: telemetry.KindRequestDone, Disk: -1, Pair: -1, Bytes: 4096, LatencyUs: 90},
	}
}

// BenchmarkSyncJSONLSinkEmit is the baseline: the synchronous sink's
// per-event cost on the emitting (simulation) goroutine when the journal
// goes to an actual file — encode, buffered write, and the amortized
// write syscalls whenever the buffer fills.
func BenchmarkSyncJSONLSinkEmit(b *testing.B) {
	f, err := os.Create(filepath.Join(b.TempDir(), "journal.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	s := telemetry.NewJSONLSink(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Emit(benchEvents[i%len(benchEvents)])
	}
	b.StopTimer()
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAsyncSinkEmit measures the async pipeline's sustained,
// writer-bound throughput into a one-segment rotated journal. It emits
// without pause under PolicyBlock, so once the ring fills, Emit waits
// for the writer goroutine and ns/op is the writer's encode and IO rate
// per event. BenchmarkCoreJournalEmit measures what the simulation
// goroutine itself pays per event.
func BenchmarkAsyncSinkEmit(b *testing.B) {
	w, err := NewRotatingWriter(RotateConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	s := NewAsyncSink(w, AsyncConfig{Buffer: DefaultBuffer, Policy: PolicyBlock})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Emit(benchEvents[i%len(benchEvents)])
	}
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAsyncSinkEmitDrop is the fleet-mode variant: PolicyDrop never
// blocks the producer even when the writer falls behind.
func BenchmarkAsyncSinkEmitDrop(b *testing.B) {
	w, err := NewRotatingWriter(RotateConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	s := NewAsyncSink(w, AsyncConfig{Buffer: DefaultBuffer, Policy: PolicyDrop})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Emit(benchEvents[i%len(benchEvents)])
	}
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCoreJournalEmit isolates the producer side of the async
// journal: what the simulation goroutine pays per event to hand it to an
// AsyncSink whose writer goroutine encodes into a discarding writer.
// Events go out in rounds that fit the ring, with an untimed Flush
// between rounds, so Emit never waits for the slower encoder and the
// number is the producer's own cost. It must stay at 0 allocs/op.
func BenchmarkCoreJournalEmit(b *testing.B) {
	const round = DefaultBuffer / 2
	s := NewAsyncSink(nullWriter{}, AsyncConfig{Buffer: DefaultBuffer, Policy: PolicyBlock})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%round == 0 {
			b.StopTimer()
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		s.Emit(benchEvents[i%len(benchEvents)])
	}
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// replaySegment encodes at least n bytes of events shaped like a replay
// journal, which is mostly one RequestDone per request: mostly-write
// requests of 4 KiB multiples, a latency of up to 20 ms each, and a probe
// every 256 requests.
func replaySegment(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	var out []byte
	var at sim.Time
	for i := 0; len(out) < n; i++ {
		if i%256 == 0 {
			out = telemetry.AppendEvent(out, telemetry.Event{At: at, Kind: telemetry.KindProbe, Disk: -1, Pair: -1,
				States: "AISSSSSSSSSSSSSSSSSSAISSSSSSSSSSSSSSSSSS", LogUsed: rng.Int63n(1 << 27), LogCap: 1 << 27})
		}
		at += sim.Time(rng.Intn(100000))
		write, lat := rng.Intn(10) > 0, rng.Int63n(20000)
		out = telemetry.AppendEvent(out, telemetry.Event{At: at + sim.Time(lat), Kind: telemetry.KindRequestDone, Disk: -1, Pair: -1,
			Write: write, Bytes: int64(rng.Intn(16)+1) * 4096, LatencyUs: lat})
	}
	return out
}

// BenchmarkCoreJournalArchive measures what a compressed journal pays
// per segment: a fixed 4 MiB replay-shaped segment, line by line, through
// a compressing RotatingWriter that seals it into a .gz file and opens
// the next; the sealed segments stay in the temporary directory. MB/s is
// over the uncompressed bytes.
func BenchmarkCoreJournalArchive(b *testing.B) {
	seg := replaySegment(4 << 20)
	lines := bytes.SplitAfter(seg, []byte{'\n'})
	lines = lines[:len(lines)-1] // the empty remainder after the last newline
	w, err := NewRotatingWriter(RotateConfig{Dir: b.TempDir(), SegmentBytes: int64(len(seg)), Compress: true})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(seg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, line := range lines {
			if err := w.WriteEvent(line, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}
