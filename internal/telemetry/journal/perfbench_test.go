package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/rolo-storage/rolo/internal/telemetry"
)

// These tests drive a RotatingWriter through NewAsyncSink, in the call
// sequence perfbench uses: wrap with PolicyBlock, Emit, Close, then
// Verify and require m.Writer with nothing dropped.

// jsonlBytes renders evs through telemetry.JSONLSink, the byte reference
// of every journal.
func jsonlBytes(t *testing.T, evs []telemetry.Event) []byte {
	t.Helper()
	var ref bytes.Buffer
	sink := telemetry.NewJSONLSink(&ref)
	for _, ev := range evs {
		sink.Emit(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return ref.Bytes()
}

// TestAsyncSinkBlockingPreservesBytes: one plain, unbounded segment holds
// JSONLSink's bytes exactly, and the manifest counts every event written
// and none dropped.
func TestAsyncSinkBlockingPreservesBytes(t *testing.T) {
	evs := genEvents(5000, 10)
	dir := t.TempDir()
	w, err := NewRotatingWriter(RotateConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := NewAsyncSink(w, AsyncConfig{Policy: PolicyBlock})
	for _, ev := range evs {
		s.Emit(ev)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if want := (WriterStats{Written: int64(len(evs))}); m.Writer == nil || *m.Writer != want {
		t.Fatalf("manifest writer stats %+v, want %+v", m.Writer, want)
	}
	if len(m.Segments) != 1 {
		t.Fatalf("unbounded journal has %d segments, want 1", len(m.Segments))
	}
	if !bytes.Equal(concatSegments(t, dir), jsonlBytes(t, evs)) {
		t.Fatal("journal diverges from JSONLSink's bytes")
	}
}

// TestAsyncSinkOverRotatingWriter: perfbench's configuration, rotated
// gzip segments, decompresses and concatenates to JSONLSink's bytes,
// verifies with every event counted, and reads back event for event.
func TestAsyncSinkOverRotatingWriter(t *testing.T) {
	dir := t.TempDir()
	evs := genEvents(2000, 11)
	w, err := NewRotatingWriter(RotateConfig{Dir: dir, SegmentBytes: 4096, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewAsyncSink(w, AsyncConfig{Policy: PolicyBlock})
	for _, ev := range evs {
		s.Emit(ev)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if want := (WriterStats{Written: int64(len(evs))}); m.Writer == nil || *m.Writer != want {
		t.Fatalf("manifest writer stats %+v, want %+v", m.Writer, want)
	}
	if len(m.Segments) < 2 {
		t.Fatalf("4 KiB segments: journal has %d segments, want several", len(m.Segments))
	}
	if !bytes.Equal(concatSegments(t, dir), jsonlBytes(t, evs)) {
		t.Fatal("rotated journal diverges from JSONLSink's bytes")
	}
	got := readAll(t, dir)
	if len(got) != len(evs) {
		t.Fatalf("read back %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], evs[i])
		}
	}
}

// TestAsyncSinkStickyWriteError: a rotation that cannot open the next
// segment ends the journal. Later Emits write nothing, Flush and Close
// return that error, and no manifest is written.
func TestAsyncSinkStickyWriteError(t *testing.T) {
	dir := t.TempDir()
	w, err := NewRotatingWriter(RotateConfig{Dir: dir, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// A directory in segment 2's place makes its os.Create fail.
	if err := os.Mkdir(filepath.Join(dir, segmentName(2)), 0o755); err != nil {
		t.Fatal(err)
	}
	s := NewAsyncSink(w, AsyncConfig{Policy: PolicyBlock})
	evs := genEvents(200, 16)
	i := 0
	for ; w.err == nil; i++ {
		if i == len(evs) {
			t.Fatalf("%d events never filled a 1 KiB segment", len(evs))
		}
		s.Emit(evs[i])
	}
	ferr := w.err
	if w.seq != 2 {
		t.Fatalf("write error %v at segment %d, want the rotation into segment 2", ferr, w.seq)
	}
	events, size := w.events, w.size
	for ; i < len(evs); i++ {
		s.Emit(evs[i])
	}
	if w.events != events || w.size != size || w.err != ferr {
		t.Fatalf("Emit after a write error wrote: %d events, %d bytes, error %v", w.events, w.size, w.err)
	}
	if err := s.Flush(); err != ferr {
		t.Fatalf("Flush after a write error = %v, want %v", err, ferr)
	}
	if err := s.Close(); err != ferr {
		t.Fatalf("Close after a write error = %v, want %v", err, ferr)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed journal wrote a manifest: %v", err)
	}
}
