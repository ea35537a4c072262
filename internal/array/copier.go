package array

import (
	"github.com/rolo-storage/rolo/internal/disk"
	"github.com/rolo-storage/rolo/internal/intervals"
	"github.com/rolo-storage/rolo/internal/sim"
)

// DestageChunk caps each background copy I/O of a destage or rebuild.
const DestageChunk int64 = 256 << 10

// Copier drains an interval set by copying it chunk-by-chunk from a source
// disk to one or more destination disks, at background priority, keeping a
// single chunk in flight. This is the destaging engine: it consumes only
// free disk bandwidth because background I/Os are dispatched by disks only
// when no foreground work is pending.
//
// Spans are interpreted as byte offsets; srcIO and dstIO translate a span
// into concrete IOs (data region vs log region addressing is up to the
// caller). Work may be added while the copier runs; Done fires when the
// set drains.
type Copier struct {
	eng   *sim.Engine
	src   *disk.Disk
	dsts  []*disk.Disk
	work  WorkSet
	chunk int64

	// srcIO and dstIO build the read and write IOs for a span. dstIO is
	// invoked once per destination disk.
	srcIO func(sp intervals.Span) *disk.IO
	dstIO func(sp intervals.Span) *disk.IO

	// OnDrained fires each time the work set empties (it may refill and
	// drain again).
	OnDrained func(now sim.Time)

	running     bool
	bytesCopied int64
	err         error

	// Per-chunk completion plumbing, bound once at construction: the
	// copier keeps a single chunk in flight, so cur, the write-phase join
	// and the two closures can be reused for every chunk (DESIGN §11).
	cur        intervals.Span
	join       Join
	readDoneFn func(now sim.Time)
	joinDoneFn func(now sim.Time)
}

// WorkSet is what a copier drains: an *intervals.Set, or a Logged pair's
// live dirt (Logged.Destager).
type WorkSet interface {
	// PopFirst removes and returns up to max bytes from the lowest span.
	PopFirst(max int64) (intervals.Span, bool)
}

// NewCopier constructs a copier. The work set is owned by the caller and
// may be extended between chunks.
func NewCopier(eng *sim.Engine, src *disk.Disk, dsts []*disk.Disk, work WorkSet,
	chunk int64, srcIO, dstIO func(sp intervals.Span) *disk.IO) *Copier {
	c := &Copier{
		eng: eng, src: src, dsts: dsts, work: work, chunk: chunk,
		srcIO: srcIO, dstIO: dstIO,
	}
	c.readDoneFn = func(at sim.Time) { c.writePhase(at) }
	c.join.fn = func(at sim.Time) {
		c.bytesCopied += c.cur.Len()
		c.step(at)
	}
	c.joinDoneFn = c.join.Done
	return c
}

// DataCopier returns a copier that drains work from src's data region to
// the same offsets on dst: a pair's primary-to-mirror destage, or a
// rebuild onto a replaced disk.
func (a *Array) DataCopier(src, dst *disk.Disk, work WorkSet) *Copier {
	return NewCopier(a.Eng, src, []*disk.Disk{dst}, work, DestageChunk,
		func(sp intervals.Span) *disk.IO { return a.DataIO(sp.Start, sp.Len(), false, true) },
		func(sp intervals.Span) *disk.IO { return a.DataIO(sp.Start, sp.Len(), true, true) },
	)
}

// Running reports whether a chunk is in flight.
func (c *Copier) Running() bool { return c.running }

// BytesCopied returns the total bytes copied so far.
func (c *Copier) BytesCopied() int64 { return c.bytesCopied }

// Err returns the first submission error, which halts the copier. A
// non-nil error indicates broken addressing in the caller's translators.
func (c *Copier) Err() error { return c.err }

// Kick starts (or resumes) the copy loop if work is pending. It is safe to
// call at any time, including while running.
func (c *Copier) Kick() {
	if c.running {
		return
	}
	c.step(c.eng.Now())
}

func (c *Copier) step(now sim.Time) {
	sp, ok := c.work.PopFirst(c.chunk)
	if !ok {
		c.running = false
		if c.OnDrained != nil {
			c.OnDrained(now)
		}
		return
	}
	c.running = true
	c.cur = sp
	read := c.srcIO(sp)
	read.Background = true
	read.Write = false
	read.OnDone = c.readDoneFn
	if err := c.src.Submit(read); err != nil {
		// Submission only fails on malformed addressing — a bug in the
		// caller's translators. Halt and expose via Err.
		c.running = false
		c.err = err
	}
}

func (c *Copier) writePhase(now sim.Time) {
	sp := c.cur
	c.join.remaining = len(c.dsts)
	for _, dst := range c.dsts {
		w := c.dstIO(sp)
		w.Background = true
		w.Write = true
		w.OnDone = c.joinDoneFn
		if err := dst.Submit(w); err != nil {
			c.running = false
			c.err = err
			return
		}
	}
}
