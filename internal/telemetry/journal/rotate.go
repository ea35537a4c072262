package journal

import (
	"bufio"
	"compress/gzip"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
)

// RotateConfig configures a journal: the directory a RotatingWriter
// fills and how it rotates. The command-line tools declare it with Flags,
// one flag per field, and callers that run several simulations give each
// one a subdirectory of Dir. An empty Dir means no journal.
type RotateConfig struct {
	// Dir is the journal directory; it is created if missing.
	Dir string
	// SegmentBytes cuts a new segment once the active one reaches this
	// many uncompressed bytes (checked after each line, so lines are
	// never split). 0 keeps a single unbounded segment.
	SegmentBytes int64
	// Compress writes every segment, the active one included, gzipped as
	// run-NNNNN.jsonl.gz instead of run-NNNNN.jsonl.
	Compress bool
}

// Flags registers -journal, -journal-segment and -journal-compress on the
// default flag set and returns the config they fill; dirUsage says what
// -journal writes. Check the parsed config with Validate before the run.
func Flags(dirUsage string) *RotateConfig {
	c := &RotateConfig{}
	flag.StringVar(&c.Dir, "journal", "", dirUsage)
	flag.Int64Var(&c.SegmentBytes, "journal-segment", 0, "rotate each journal into segments of this many uncompressed bytes (0 = one unbounded segment)")
	flag.BoolVar(&c.Compress, "journal-compress", false, "write every journal segment gzip-compressed, as run-NNNNN.jsonl.gz; the active one is a gzip stream without its trailer until sealed")
	return c
}

// Validate reports config errors: a negative segment size, or a segment
// or compression setting without a directory to journal into.
func (c RotateConfig) Validate() error {
	switch {
	case c.SegmentBytes < 0:
		return fmt.Errorf("journal: negative segment size %d", c.SegmentBytes)
	case c.Dir == "" && (c.SegmentBytes != 0 || c.Compress):
		return fmt.Errorf("journal: -journal-segment and -journal-compress require -journal <dir>")
	}
	return nil
}

// segmentName renders the canonical segment file name for seq.
func segmentName(seq int) string { return fmt.Sprintf("run-%05d.jsonl", seq) }

// RotatingWriter is the journal's telemetry sink: it writes the events
// as size-capped JSONL segments with optional gzip compression, and a
// manifest recording each segment's event count, simulation-time bounds
// and CRC32. It runs on the goroutine that emits, so the journal, its
// manifest included, is a pure function of the event sequence; it is not
// safe for concurrent use.
//
// A compressed segment is streamed: its lines go through one gzip.Writer
// straight into the .gz file, so every journal byte is written once. The
// compressor runs at gzip.BestSpeed: deflate at the default level cost
// more CPU than the simulation in checked, journaled runs, and BestSpeed
// compresses ~4× faster for archives ~27% larger (DESIGN §12). It lives as
// long as the writer and is Reset for each segment, which yields the same
// bytes as a fresh compressor.
//
//rolosan:resource
type RotatingWriter struct {
	cfg RotateConfig

	// The active segment's pipeline: lines → bw → sum → (gz → zbuf →) f.
	f    *os.File
	bw   *bufio.Writer
	sum  crcWriter
	gz   *gzip.Writer  // nil without cfg.Compress
	zbuf *bufio.Writer // batches gz's small output writes into f

	seq     int // active segment number, 1-based
	size    int64
	events  int64
	firstAt sim.Time
	lastAt  sim.Time

	scratch  []byte // Emit's encode buffer, reused for every event
	manifest Manifest
	err      error // first error writing or rotating; it ends the journal
	closed   bool
}

// crcWriter checksums the uncompressed lines on their way into the
// segment: the manifest's CRC32 is over them, compressed or not.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

// NewRotatingWriter creates cfg.Dir if needed, removes any journal left
// there by a previous run (stale segments would otherwise survive past a
// shorter rerun and fail manifest verification — the directory analogue
// of os.Create truncating a file), and opens the first segment.
func NewRotatingWriter(cfg RotateConfig) (*RotatingWriter, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("journal: rotating writer needs a directory")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", cfg.Dir, err)
	}
	if err := removeStaleJournal(cfg.Dir); err != nil {
		return nil, err
	}
	w := &RotatingWriter{cfg: cfg}
	w.bw = bufio.NewWriterSize(&w.sum, 64<<10)
	if cfg.Compress {
		w.zbuf = bufio.NewWriterSize(io.Discard, 64<<10)
		gz, err := gzip.NewWriterLevel(w.zbuf, gzip.BestSpeed)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		w.gz = gz
	}
	if err := w.openSegment(1); err != nil {
		return nil, err
	}
	return w, nil
}

// removeStaleJournal deletes segment files and the manifest of a prior
// journal in dir; files that are not journal artifacts are left alone.
func removeStaleJournal(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("journal: scanning %s: %w", dir, err)
	}
	for _, e := range entries {
		_, seg := isSegmentName(e.Name())
		if e.IsDir() || (!seg && e.Name() != ManifestName) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return fmt.Errorf("journal: removing stale %s: %w", e.Name(), err)
		}
	}
	return nil
}

// activeName is the active segment's file name.
func (w *RotatingWriter) activeName() string {
	if w.gz != nil {
		return segmentName(w.seq) + ".gz"
	}
	return segmentName(w.seq)
}

func (w *RotatingWriter) openSegment(seq int) error {
	w.seq = seq
	f, err := os.Create(filepath.Join(w.cfg.Dir, w.activeName()))
	if err != nil {
		return fmt.Errorf("journal: creating segment: %w", err)
	}
	w.f = f
	w.sum = crcWriter{w: f}
	if w.gz != nil {
		w.zbuf.Reset(f)
		w.gz.Reset(w.zbuf)
		w.sum.w = w.gz
	}
	w.bw.Reset(&w.sum)
	w.size, w.events, w.firstAt, w.lastAt = 0, 0, 0, 0
	return nil
}

// abort ends the active segment after a write error: it closes the
// descriptor and deletes a compressed segment, whose gzip stream would
// lack its trailer, so a failed run leaves no stray .gz. The error is
// sticky: every later call returns it.
func (w *RotatingWriter) abort(err error) error {
	w.err = fmt.Errorf("journal: segment %s: %w", w.activeName(), err)
	_ = w.f.Close() // the write error is the root cause
	if w.gz != nil {
		_ = os.Remove(filepath.Join(w.cfg.Dir, w.activeName())) // best effort, as above
	}
	return w.err
}

// Emit implements telemetry.Sink: it encodes ev with
// telemetry.AppendEvent into the writer's scratch buffer and writes the
// line. An error writing or rotating is sticky: later Emits do nothing,
// and Flush and Close return it.
func (w *RotatingWriter) Emit(ev telemetry.Event) {
	if w.closed || w.err != nil {
		return
	}
	w.scratch = telemetry.AppendEvent(w.scratch[:0], ev)
	_ = w.writeEvent(w.scratch, ev.At) // kept in w.err for Flush and Close
}

// writeEvent appends one encoded event line (newline included), stamped
// with the event's simulation time so the manifest bounds each segment's
// times without re-parsing, and rotates once the active segment reaches
// the configured size. The journal must be open and unfailed.
func (w *RotatingWriter) writeEvent(line []byte, at sim.Time) error {
	if _, err := w.bw.Write(line); err != nil {
		return w.abort(err)
	}
	if w.events == 0 {
		w.firstAt = at
	}
	w.lastAt = at
	w.events++
	w.size += int64(len(line))
	if w.cfg.SegmentBytes > 0 && w.size >= w.cfg.SegmentBytes {
		w.err = w.rotate()
		return w.err
	}
	return nil
}

// Flush implements telemetry.Flusher: the lines written so far reach the
// segment file. A compressed segment then holds a gzip stream cut at a
// sync-flush point: every flushed line decompresses, but the stream has
// no trailer until the segment is sealed.
func (w *RotatingWriter) Flush() error {
	if w.closed || w.err != nil {
		return w.err
	}
	if err := w.push(false); err != nil {
		return w.abort(err)
	}
	return nil
}

// push moves the buffered lines into the segment file, through the
// compressor's sync flush or, with end set, its trailer.
func (w *RotatingWriter) push(end bool) error {
	err := w.bw.Flush()
	if w.gz != nil && err == nil {
		if end {
			err = w.gz.Close()
		} else {
			err = w.gz.Flush()
		}
		if err == nil {
			err = w.zbuf.Flush()
		}
	}
	return err
}

// seal completes the active segment, closes its file and returns its
// manifest entry.
func (w *RotatingWriter) seal() (SegmentInfo, error) {
	err := w.push(true)
	if err == nil {
		err = w.f.Close()
	}
	if err != nil {
		return SegmentInfo{}, w.abort(err)
	}
	return SegmentInfo{
		Name:       w.activeName(),
		Events:     w.events,
		FirstAt:    w.firstAt,
		LastAt:     w.lastAt,
		Bytes:      w.size,
		CRC32:      w.sum.crc,
		Compressed: w.gz != nil,
	}, nil
}

// rotate seals and accounts the active segment, then opens the next one.
func (w *RotatingWriter) rotate() error {
	info, err := w.seal()
	if err != nil {
		return err
	}
	w.manifest.Segments = append(w.manifest.Segments, info)
	return w.openSegment(w.seq + 1)
}

// Close seals the active segment (dropping it instead if it is empty and
// not the only one), writes the manifest with its WriterStats, and
// finalizes the journal. After a write error it returns that error and
// writes no manifest.
func (w *RotatingWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	info, err := w.seal()
	if err != nil {
		return err
	}
	if info.Events == 0 && len(w.manifest.Segments) > 0 {
		// Rotation just cut a fresh segment and nothing arrived since:
		// an empty trailing file is noise, not data.
		if err := os.Remove(filepath.Join(w.cfg.Dir, info.Name)); err != nil {
			return fmt.Errorf("journal: removing empty %s: %w", info.Name, err)
		}
	} else {
		w.manifest.Segments = append(w.manifest.Segments, info)
	}
	w.manifest.Writer = &WriterStats{Written: w.manifest.Events()}
	return WriteManifest(w.cfg.Dir, &w.manifest)
}
