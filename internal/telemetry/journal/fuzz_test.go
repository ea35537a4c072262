package journal

import (
	"encoding/binary"
	"io"
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
)

// stateAlphabet is the probe state-string alphabet; keeping fuzzed States
// inside it (plus a quote-needing character) keeps the strings valid
// UTF-8 so strconv quote/unquote round-trips exactly.
const stateAlphabet = `AISUDF"\`

// eventsFromBytes derives a canonical event sequence from raw fuzz input:
// 8 bytes per event, folded into fields that respect the encoder's
// omission invariants (Disk/Pair ≥ -1, LogUsed only beside LogCap), which
// are exactly the invariants the real recorder upholds.
func eventsFromBytes(data []byte) []telemetry.Event {
	var evs []telemetry.Event
	var at sim.Time
	for len(data) >= 8 {
		word := binary.LittleEndian.Uint64(data[:8])
		data = data[8:]
		at += sim.Time(word >> 48)
		kind := telemetry.Kinds[int(word>>40&0xff)%len(telemetry.Kinds)]
		ev := telemetry.Event{At: at, Kind: kind, Disk: -1, Pair: -1}
		ev.Disk = int(word>>32&0xff) - 1
		ev.Pair = int(word>>24&0xff) - 1
		ev.Write = word>>23&1 == 1
		ev.Bytes = int64(word >> 8 & 0x7fff)
		switch word >> 4 & 0x7 {
		case 1:
			ev.LatencyUs = int64(word & 0xffff)
		case 2:
			ev.LogCap = int64(word&0xffff) + 1
			ev.LogUsed = int64(word & 0xff)
			ev.Backlog = int64(word & 0xf)
		case 3:
			n := int(word & 0xf)
			s := make([]byte, n)
			for i := range s {
				s[i] = stateAlphabet[int(word>>(i%8)&0xff)%len(stateAlphabet)]
			}
			ev.States = string(s)
		}
		evs = append(evs, ev)
	}
	return evs
}

// FuzzJournalRoundTrip feeds the JSONL encoder's output through the full
// journal lifecycle — rotation, gzip archival, manifest — and back
// through the streaming reader, requiring event-for-event equality and a
// verifying manifest. One fuzz byte steers the rotation/compression
// configuration so all writer paths stay covered.
func FuzzJournalRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte("\x10\x20\x30\x40\x50\x60\x70\x80journal-lifecycle-seed-corpus!!"))
	seed := make([]byte, 0, 256)
	for i := 0; i < 32; i++ {
		seed = append(seed, byte(i*37), byte(i*11), byte(i), 0xff, byte(i*5), 0x33, byte(i*13), byte(255-i))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := RotateConfig{Dir: t.TempDir(), SegmentBytes: 512, Compress: true}
		if len(data) > 0 {
			cfg.Compress = data[0]&1 == 0
			cfg.SegmentBytes = int64(data[0])*16 + 128
		}
		evs := eventsFromBytes(data)

		w, err := NewRotatingWriter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			w.Emit(ev)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Verify(cfg.Dir); err != nil {
			t.Fatalf("manifest verification: %v", err)
		}

		r, err := Open(cfg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for i, want := range evs {
			got, err := r.Next()
			if err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
			if got != want {
				t.Fatalf("event %d = %+v, want %+v", i, got, want)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("reader yielded extra events: %v", err)
		}
	})
}
