package journal

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
)

// memWriter is an in-memory EventWriter for sink tests.
type memWriter struct {
	buf     bytes.Buffer
	flushes int
	closed  bool
	stats   *WriterStats
	failAt  int // fail the Nth write (1-based); 0 never fails
	writes  int
}

func (w *memWriter) WriteEvent(line []byte, _ sim.Time) error {
	w.writes++
	if w.failAt > 0 && w.writes >= w.failAt {
		return fmt.Errorf("memWriter: injected failure at write %d", w.writes)
	}
	_, err := w.buf.Write(line)
	return err
}

func (w *memWriter) Flush() error { w.flushes++; return nil }

func (w *memWriter) Close() error { w.closed = true; return nil }

func (w *memWriter) SetWriterStats(ws WriterStats) { w.stats = &ws }

func TestAsyncSinkBlockingPreservesBytes(t *testing.T) {
	evs := genEvents(5000, 10)
	want := encodeAll(evs)

	// A tiny ring forces the producer through the backpressure path.
	mw := &memWriter{}
	s := NewAsyncSink(mw, AsyncConfig{Buffer: 16, Policy: PolicyBlock})
	for _, ev := range evs {
		s.Emit(ev)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if !bytes.Equal(mw.buf.Bytes(), want) {
		t.Fatalf("async bytes diverge from synchronous encoding (%d vs %d bytes)", mw.buf.Len(), len(want))
	}
	st := s.Stats()
	if st.Dropped != 0 {
		t.Fatalf("blocking policy dropped %d events", st.Dropped)
	}
	if st.Enqueued != int64(len(evs)) || st.Written != int64(len(evs)) {
		t.Fatalf("stats enqueued=%d written=%d, want %d", st.Enqueued, st.Written, len(evs))
	}
	if st.Batches == 0 || st.MaxBatch == 0 || st.PeakOccupancy == 0 || st.PeakOccupancy > 16 {
		t.Fatalf("implausible batch stats: %+v", st)
	}
	if !mw.closed {
		t.Fatal("Close did not close the EventWriter")
	}
	if mw.stats == nil || mw.stats.Written != int64(len(evs)) {
		t.Fatalf("self-telemetry not recorded into the writer: %+v", mw.stats)
	}
}

func TestAsyncSinkDropPolicy(t *testing.T) {
	// A writer that blocks until released, so the ring must fill.
	gate := make(chan struct{})
	mw := &memWriter{}
	bw := &gatedWriter{inner: mw, gate: gate}
	s := NewAsyncSink(bw, AsyncConfig{Buffer: 8, Policy: PolicyDrop})
	for i := 0; i < 100; i++ {
		s.Emit(telemetry.Event{At: sim.Time(i), Kind: telemetry.KindRequestDone, Disk: -1, Pair: -1})
	}
	close(gate)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Stats()
	if st.Dropped == 0 {
		t.Fatal("drop policy with a stalled writer dropped nothing")
	}
	if st.Enqueued+st.Dropped != 100 {
		t.Fatalf("enqueued %d + dropped %d != 100", st.Enqueued, st.Dropped)
	}
	if st.Written != st.Enqueued {
		t.Fatalf("written %d != enqueued %d after drain", st.Written, st.Enqueued)
	}
}

// gatedWriter blocks its first write until the gate opens.
type gatedWriter struct {
	inner EventWriter
	gate  chan struct{}
	once  sync.Once
}

func (w *gatedWriter) WriteEvent(line []byte, at sim.Time) error {
	w.once.Do(func() { <-w.gate })
	return w.inner.WriteEvent(line, at)
}
func (w *gatedWriter) Flush() error { return w.inner.Flush() }
func (w *gatedWriter) Close() error { return w.inner.Close() }

func TestAsyncSinkConcurrentProducers(t *testing.T) {
	// Multiple producers (the MPSC case): every event must arrive exactly
	// once; cross-producer order is unspecified.
	const producers, per = 8, 500
	mw := &memWriter{}
	s := NewAsyncSink(mw, AsyncConfig{Buffer: 32, Policy: PolicyBlock})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Emit(telemetry.Event{
					At: sim.Time(p*per + i), Kind: telemetry.KindCacheHit,
					Disk: -1, Pair: p, Bytes: int64(i + 1),
				})
			}
		}(p)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Stats()
	if st.Dropped != 0 || st.Written != producers*per {
		t.Fatalf("stats after concurrent producers: %+v", st)
	}
	evs, err := telemetry.ParseJournal(bytes.NewReader(mw.buf.Bytes()))
	if err != nil {
		t.Fatalf("journal unparseable after concurrent producers: %v", err)
	}
	if len(evs) != producers*per {
		t.Fatalf("journal holds %d events, want %d", len(evs), producers*per)
	}
	seen := make(map[sim.Time]bool, len(evs))
	for _, ev := range evs {
		if seen[ev.At] {
			t.Fatalf("event %v written twice", ev.At)
		}
		seen[ev.At] = true
	}
}

func TestAsyncSinkEmitAfterCloseDrops(t *testing.T) {
	mw := &memWriter{}
	s := NewAsyncSink(mw, AsyncConfig{Buffer: 8})
	s.Emit(telemetry.Event{At: 1, Kind: telemetry.KindSpinUp, Disk: 0, Pair: -1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Emit(telemetry.Event{At: 2, Kind: telemetry.KindSpinUp, Disk: 1, Pair: -1})
	st := s.Stats()
	if st.Written != 1 || st.Dropped != 1 {
		t.Fatalf("post-close emit: %+v", st)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Flush after close must not hang and must report the sticky state.
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after Close: %v", err)
	}
}

func TestAsyncSinkStickyWriteError(t *testing.T) {
	mw := &memWriter{failAt: 3}
	s := NewAsyncSink(mw, AsyncConfig{Buffer: 4, Policy: PolicyBlock})
	for i := 0; i < 10; i++ {
		s.Emit(telemetry.Event{At: sim.Time(i), Kind: telemetry.KindSpinDown, Disk: i, Pair: -1})
	}
	if err := s.Flush(); err == nil {
		t.Fatal("Flush swallowed the writer error")
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close swallowed the writer error")
	}
	st := s.Stats()
	if st.Dropped == 0 {
		t.Fatal("events past the write failure not accounted as dropped")
	}
	if st.Written+st.Dropped != st.Enqueued {
		t.Fatalf("accounting leak: %+v", st)
	}
}

func TestAsyncSinkOverRotatingWriter(t *testing.T) {
	// The full production stack: async ring → rotating writer → gzip
	// segments → manifest; then verified and read back.
	dir := t.TempDir()
	evs := genEvents(2000, 11)
	w, err := NewRotatingWriter(RotateConfig{Dir: dir, SegmentBytes: 4096, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewAsyncSink(w, AsyncConfig{Buffer: 64, Policy: PolicyBlock})
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
	if m.Writer == nil || m.Writer.Dropped != 0 || m.Writer.Written != int64(len(evs)) {
		t.Fatalf("manifest writer stats: %+v", m.Writer)
	}
	if got, want := concatSegments(t, dir), encodeAll(evs); !bytes.Equal(got, want) {
		t.Fatal("async rotated journal diverges from synchronous single-file bytes")
	}
	got := readAll(t, dir)
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], evs[i])
		}
	}
}

// flushProbe records how many events its inner writer had been handed at
// each Flush.
type flushProbe struct {
	memWriter
	heldAtFlush []int
}

func (w *flushProbe) Flush() error {
	w.heldAtFlush = append(w.heldAtFlush, w.writes)
	return w.memWriter.Flush()
}

func TestAsyncSinkFlushMidBatch(t *testing.T) {
	evs := genEvents(2500, 13)
	// check flushes the sink after the first n events and requires that the
	// EventWriter was flushed holding exactly those events.
	check := func(t *testing.T, s *AsyncSink, w *flushProbe, n int) {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if w.writes != n || len(w.heldAtFlush) == 0 || w.heldAtFlush[len(w.heldAtFlush)-1] != n {
			t.Fatalf("Flush after %d events returned with %d written, EventWriter flushes at %v",
				n, w.writes, w.heldAtFlush)
		}
		if !bytes.Equal(w.buf.Bytes(), encodeAll(evs[:n])) {
			t.Fatalf("bytes after Flush at %d events diverge", n)
		}
	}

	t.Run("ring-smaller-than-drain-bound", func(t *testing.T) {
		w := &flushProbe{}
		s := NewAsyncSink(w, AsyncConfig{Buffer: 16, Policy: PolicyBlock})
		n := 0
		// Each stop leaves a part-filled batch on the producer side.
		for _, stop := range []int{1, 7, 16, 33, 1005, 2500} {
			for ; n < stop; n++ {
				s.Emit(evs[n])
			}
			check(t, s, w, n)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("backlog-over-the-drain-bound", func(t *testing.T) {
		// The writer stalls on its first write while the ring fills past
		// drainBatch, so Flush is requested with several drains queued.
		gate := make(chan struct{})
		w := &flushProbe{}
		s := NewAsyncSink(&gatedWriter{inner: w, gate: gate}, AsyncConfig{Buffer: 3000, Policy: PolicyBlock})
		for _, ev := range evs {
			s.Emit(ev)
		}
		done := make(chan error)
		go func() { done <- s.Flush() }()
		for {
			s.mu.Lock()
			requested := s.flushReq > 0
			s.mu.Unlock()
			if requested {
				break
			}
			runtime.Gosched()
		}
		close(gate)
		if err := <-done; err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if w.writes != len(evs) || w.heldAtFlush[len(w.heldAtFlush)-1] != len(evs) {
			t.Fatalf("Flush returned with %d of %d written, EventWriter flushes at %v", w.writes, len(evs), w.heldAtFlush)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.MaxBatch > drainBatch || st.Written != int64(len(evs)) {
			t.Fatalf("stats after a backlog: %+v", st)
		}
	})
}
