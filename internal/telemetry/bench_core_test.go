package telemetry

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
)

// discard is an io.Writer that swallows bytes, isolating encoder cost
// from disk speed.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Core benchmark: the per-event journal encoding path. JSONLSink.Emit
// encodes with AppendEvent into a sink-owned scratch buffer and hands the
// line to a bufio.Writer; once the scratch has grown to cover the largest
// event it must be 0 allocs/op (DESIGN §11/§12) — the probe event below
// carries a States string precisely because quoting it was the one
// per-event allocation this path used to make. Gated by scripts/check.sh
// bench-smoke and recorded in BENCH_core.json by `make bench`.
func BenchmarkCoreTelemetryEncode(b *testing.B) {
	s := NewJSONLSink(discard{})
	evs := [...]Event{
		{At: 1400, Kind: KindRequestDone, Disk: -1, Pair: -1, Write: true, Bytes: 65536, LatencyUs: 400},
		{At: 2000, Kind: KindRotation, Disk: -1, Pair: 7},
		{At: 2100, Kind: KindSpinUp, Disk: 13, Pair: -1},
		{At: 2400, Kind: KindProbe, Disk: -1, Pair: -1,
			States:  "AISUDAISUDAISUDAISUDAISUDAISUDAISUDAISUD",
			LogUsed: 123456789, LogCap: 987654321, Backlog: 4 << 20},
		{At: 2500, Kind: KindCacheMiss, Disk: -1, Pair: 0, Bytes: 4096},
	}
	var _ = sim.Time(0) // the events above are stamped in raw microseconds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Emit(evs[i%len(evs)])
	}
}
