package journal

import (
	"errors"
	"fmt"
	"sync"

	"github.com/rolo-storage/rolo/internal/telemetry"
)

// Policy selects what Emit does when the ring is full.
type Policy int

const (
	// PolicyBlock makes Emit wait for ring space. No event is ever lost,
	// so the journal bytes are a deterministic function of the event
	// sequence — the same contract as the synchronous JSONLSink, which is
	// why blocking is the default and the byte-equivalence gate runs
	// under it. The simulation goroutine stalls only when it has outrun
	// both the ring and the disk.
	PolicyBlock Policy = iota
	// PolicyDrop makes Emit discard the event and bump the drop counter
	// when the ring is full. Fleet/nightly sweeps prefer losing journal
	// lines to stalling hundreds of simulations on one slow disk; the
	// drop count lands in the manifest so lossy journals are
	// self-identifying.
	PolicyDrop
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyBlock:
		return "block"
	case PolicyDrop:
		return "drop"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// DefaultBuffer is the ring capacity used when AsyncConfig.Buffer is 0.
const DefaultBuffer = 8192

// emitBatch is how many events Emit gathers before handing them to the
// ring (fewer when the ring is smaller): one acquisition of the ring's
// lock and at most one writer wakeup per batch instead of per event.
const emitBatch = 256

// drainBatch bounds how many events the writer goroutine copies out of
// the ring at once, and so the size of its copy buffer (~100 KB).
const drainBatch = 1024

// AsyncConfig configures an AsyncSink.
type AsyncConfig struct {
	// Buffer is the ring capacity in events (DefaultBuffer when 0).
	Buffer int
	// Policy selects the full-ring behavior (PolicyBlock by default).
	Policy Policy
}

// AsyncSink moves journal encoding and IO off the simulation goroutine.
// Emit copies the event into a producer-side batch; a full batch enters
// a bounded MPSC ring under one lock acquisition. A single writer
// goroutine drains the ring in bounded batches, encodes each event with
// telemetry.AppendEvent into a goroutine-owned scratch buffer, and hands
// the lines to the EventWriter (typically a RotatingWriter). Producers
// pay an uncontended producer-side lock and a struct copy per event —
// no encoding, no syscalls, no lock shared with the writer.
//
// Ordering: events from one producer are written in emission order. The
// simulator emits from its single event-loop goroutine, so with
// PolicyBlock the byte stream is identical to the synchronous sink's.
// The policies apply per event as a batch enters the ring: under
// PolicyDrop the events that find it full are dropped and counted.
//
// Lifecycle: Flush hands over the pending batch and blocks until
// everything emitted so far is encoded, written and flushed through the
// EventWriter (rolo.Run calls it at end of run); Close hands over the
// pending batch, drains the ring, stops the writer goroutine, records
// WriterStats into the writer (when it accepts them) and closes it.
// Emit after Close counts the event as dropped rather than blocking.
//
//rolosan:resource
type AsyncSink struct {
	w      EventWriter
	policy Policy

	// Producer side. The writer goroutine never takes pmu; when both
	// locks are held, pmu is taken first.
	pmu sync.Mutex
	//rolosan:guardedby pmu
	pending []telemetry.Event // the batch being filled
	//rolosan:guardedby pmu
	sealed bool // Close has handed over the last batch

	mu       sync.Mutex
	notFull  *sync.Cond // ring has space, or the sink is closing
	notEmpty *sync.Cond // ring has events, a flush is requested, or closing
	flushed  *sync.Cond // flushAck advanced, or the writer goroutine exited

	//rolosan:guardedby mu
	ring []telemetry.Event
	//rolosan:guardedby mu
	head int
	//rolosan:guardedby mu
	n int
	//rolosan:guardedby mu
	closing bool
	//rolosan:guardedby mu
	writerExited bool
	//rolosan:guardedby mu
	err error // first writer error, sticky
	//rolosan:guardedby mu
	stats WriterStats
	//rolosan:guardedby mu
	flushReq uint64
	//rolosan:guardedby mu
	flushAck uint64
	//rolosan:guardedby mu
	flushAt int64 // stats.Enqueued when the latest flush was requested

	done chan struct{} // closed when the writer goroutine exits

	// Writer-goroutine-owned scratch (no locking): the drain batch and
	// the encode buffer, both reused across batches.
	batch   []telemetry.Event
	scratch []byte
}

// NewAsyncSink starts the writer goroutine over w. The caller must Close
// the sink (which closes w) when the run is over.
func NewAsyncSink(w EventWriter, cfg AsyncConfig) *AsyncSink {
	buf := cfg.Buffer
	if buf <= 0 {
		buf = DefaultBuffer
	}
	s := &AsyncSink{
		w:       w,
		policy:  cfg.Policy,
		pending: make([]telemetry.Event, 0, min(emitBatch, buf)),
		ring:    make([]telemetry.Event, buf),
		done:    make(chan struct{}),
		batch:   make([]telemetry.Event, min(drainBatch, buf)),
		stats:   WriterStats{Capacity: buf},
	}
	s.notFull = sync.NewCond(&s.mu)
	s.notEmpty = sync.NewCond(&s.mu)
	s.flushed = sync.NewCond(&s.mu)
	go func() {
		defer close(s.done)
		s.writeLoop()
	}()
	return s
}

// Emit implements telemetry.Sink. It is safe for concurrent producers.
func (s *AsyncSink) Emit(ev telemetry.Event) {
	s.pmu.Lock()
	s.pending = append(s.pending, ev)
	if len(s.pending) == cap(s.pending) || s.sealed {
		s.handOff()
	}
	s.pmu.Unlock()
}

// handOff moves the pending batch into the ring under one acquisition of
// mu, and wakes the writer once if the ring was empty. Under PolicyBlock
// it waits for space as often as the batch needs; under PolicyDrop the
// events that do not fit are dropped, and once the sink is closing all
// of them are.
//
//rolosan:requires pmu
func (s *AsyncSink) handOff() {
	evs := s.pending
	s.pending = s.pending[:0]
	if len(evs) == 0 {
		return
	}
	s.mu.Lock()
	wake := false // the ring went from empty to non-empty: the writer may sleep
	for len(evs) > 0 {
		free := len(s.ring) - s.n
		if s.closing || (free == 0 && s.policy == PolicyDrop) {
			s.stats.Dropped += int64(len(evs))
			break
		}
		if free == 0 {
			if wake {
				s.notEmpty.Signal()
				wake = false
			}
			s.notFull.Wait()
			continue
		}
		wake = wake || s.n == 0
		k := min(free, len(evs))
		c := copy(s.ring[(s.head+s.n)%len(s.ring):], evs[:k])
		copy(s.ring, evs[c:k])
		s.n += k
		s.stats.Enqueued += int64(k)
		s.stats.PeakOccupancy = max(s.stats.PeakOccupancy, s.n)
		evs = evs[k:]
	}
	if wake {
		s.notEmpty.Signal()
	}
	s.mu.Unlock()
}

// writeLoop is the single consumer: drain the ring in bounded batches,
// encode and write outside the lock, serve a flush request once the
// events it waits for are written, exit once closing and drained.
func (s *AsyncSink) writeLoop() {
	defer func() {
		s.mu.Lock()
		s.writerExited = true
		s.flushed.Broadcast()
		s.notFull.Broadcast()
		s.mu.Unlock()
	}()
	for {
		s.mu.Lock()
		for s.n == 0 && !s.closing && s.flushAck == s.flushReq {
			s.notEmpty.Wait()
		}
		take := min(s.n, len(s.batch))
		c := copy(s.batch[:take], s.ring[s.head:])
		copy(s.batch[c:take], s.ring)
		s.head = (s.head + take) % len(s.ring)
		s.n -= take
		closing := s.closing
		flushTo := s.flushReq
		// Every event enqueued before the latest flush request has now
		// been taken: write this batch, then flush.
		doFlush := s.flushAck != flushTo && s.stats.Enqueued-int64(s.n) >= s.flushAt
		if take > 0 {
			s.stats.Batches++
			s.stats.MaxBatch = max(s.stats.MaxBatch, take)
			s.notFull.Broadcast()
		}
		s.mu.Unlock()

		var werr error
		written := 0
		for _, ev := range s.batch[:take] {
			s.scratch = telemetry.AppendEvent(s.scratch[:0], ev)
			if err := s.w.WriteEvent(s.scratch, ev.At); err != nil {
				werr = err
				break
			}
			written++
		}
		var ferr error
		if doFlush {
			ferr = s.w.Flush()
		}

		s.mu.Lock()
		s.stats.Written += int64(written)
		// Events past a write failure are dropped, not silently absorbed.
		s.stats.Dropped += int64(take - written)
		if s.err == nil {
			s.err = werr
		}
		if s.err == nil {
			s.err = ferr
		}
		if doFlush {
			s.flushAck = flushTo
			s.flushed.Broadcast()
		}
		exit := closing && s.n == 0 && s.flushAck == s.flushReq
		s.mu.Unlock()
		if exit {
			return
		}
	}
}

// Flush implements telemetry.Flusher: it hands over the pending batch and
// blocks until every event emitted before the call has been encoded,
// written and flushed through the EventWriter, then reports the writer's
// sticky error, if any.
func (s *AsyncSink) Flush() error {
	s.pmu.Lock()
	s.handOff()
	s.pmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writerExited {
		return s.err
	}
	s.flushReq++
	target := s.flushReq
	s.flushAt = s.stats.Enqueued
	s.notEmpty.Signal()
	for s.flushAck < target && !s.writerExited {
		s.flushed.Wait()
	}
	return s.err
}

// Close hands over the pending batch, drains the ring, stops the writer
// goroutine, records the sink's self-telemetry into the EventWriter (when
// it accepts WriterStats, as RotatingWriter does) and closes it. Close is
// idempotent; the first call's error — writer errors joined with the
// close error — is authoritative.
func (s *AsyncSink) Close() error {
	s.pmu.Lock()
	s.sealed = true
	s.handOff()
	s.pmu.Unlock()
	s.mu.Lock()
	already := s.closing
	s.closing = true
	s.notEmpty.Signal()
	s.notFull.Broadcast()
	s.mu.Unlock()
	<-s.done
	if already {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.err
	}
	// The writer goroutine has exited: the EventWriter is ours again.
	if sr, ok := s.w.(interface{ SetWriterStats(WriterStats) }); ok {
		sr.SetWriterStats(s.Stats())
	}
	cerr := s.w.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = cerr
	} else if cerr != nil {
		s.err = errors.Join(s.err, cerr)
	}
	return s.err
}

// Stats returns a snapshot of the sink's self-telemetry.
func (s *AsyncSink) Stats() WriterStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
