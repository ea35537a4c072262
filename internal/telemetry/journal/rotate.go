package journal

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/rolo-storage/rolo/internal/sim"
)

// EventWriter is the destination contract of the async sink: one encoded
// JSONL line per event (newline included), stamped with the event's
// simulation time so rotation metadata can track time bounds without
// re-parsing. Implementations are single-goroutine: the async sink's
// writer goroutine (or a synchronous caller) owns the writer exclusively.
//
//rolosan:resource
type EventWriter interface {
	// WriteEvent appends one encoded event line (terminated by '\n').
	WriteEvent(line []byte, at sim.Time) error
	// Flush forces buffered lines to the underlying storage.
	Flush() error
	// Close finalizes the journal; no writes may follow.
	Close() error
}

// RotateConfig configures a RotatingWriter.
type RotateConfig struct {
	// Dir is the journal directory; it is created if missing.
	Dir string
	// SegmentBytes cuts a new segment once the active one reaches this
	// many uncompressed bytes (checked after each line, so lines are
	// never split). <= 0 keeps a single unbounded segment.
	SegmentBytes int64
	// Compress gzip-archives each completed segment (including the final
	// one at Close), replacing run-NNNNN.jsonl with run-NNNNN.jsonl.gz.
	Compress bool
	// Retain caps how many completed segments stay on disk; once
	// exceeded, the oldest is deleted and counted in the manifest's
	// RemovedSegments. 0 retains everything.
	Retain int
}

// segmentName renders the canonical segment file name for seq.
func segmentName(seq int) string { return fmt.Sprintf("run-%05d.jsonl", seq) }

// RotatingWriter writes a journal as size-capped JSONL segments with
// optional gzip archival, a retention cap, and a manifest recording each
// segment's event count, simulation-time bounds and CRC32. It implements
// EventWriter and is not safe for concurrent use — it is driven either
// synchronously or by an AsyncSink's single writer goroutine.
//
//rolosan:resource
type RotatingWriter struct {
	cfg RotateConfig

	f   *os.File
	bw  *bufio.Writer
	crc hash.Hash32
	mw  io.Writer // tee: bw + crc

	seq     int // active segment number, 1-based
	size    int64
	events  int64
	firstAt sim.Time
	lastAt  sim.Time

	manifest Manifest
	closed   bool
}

// NewRotatingWriter creates cfg.Dir if needed, removes any journal left
// there by a previous run (stale segments would otherwise survive past a
// shorter rerun and fail manifest verification — the directory analogue
// of os.Create truncating a file), and opens the first segment.
func NewRotatingWriter(cfg RotateConfig) (*RotatingWriter, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("journal: rotating writer needs a directory")
	}
	if cfg.Retain < 0 {
		return nil, fmt.Errorf("journal: negative retention cap %d", cfg.Retain)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", cfg.Dir, err)
	}
	if err := removeStaleJournal(cfg.Dir); err != nil {
		return nil, err
	}
	w := &RotatingWriter{cfg: cfg}
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

func (w *RotatingWriter) openSegment(seq int) error {
	f, err := os.Create(filepath.Join(w.cfg.Dir, segmentName(seq)))
	if err != nil {
		return fmt.Errorf("journal: creating segment: %w", err)
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 64<<10)
	w.crc = crc32.NewIEEE()
	w.mw = io.MultiWriter(w.bw, w.crc)
	w.seq = seq
	w.size, w.events, w.firstAt, w.lastAt = 0, 0, 0, 0
	return nil
}

// WriteEvent implements EventWriter, rotating once the active segment
// reaches the configured size.
func (w *RotatingWriter) WriteEvent(line []byte, at sim.Time) error {
	if w.closed {
		return fmt.Errorf("journal: write to closed rotating writer")
	}
	if _, err := w.mw.Write(line); err != nil {
		return fmt.Errorf("journal: segment %s: %w", segmentName(w.seq), err)
	}
	if w.events == 0 {
		w.firstAt = at
	}
	w.lastAt = at
	w.events++
	w.size += int64(len(line))
	if w.cfg.SegmentBytes > 0 && w.size >= w.cfg.SegmentBytes {
		return w.rotate()
	}
	return nil
}

// Flush implements EventWriter; the active segment becomes tail-able.
func (w *RotatingWriter) Flush() error {
	if w.closed {
		return nil
	}
	return w.bw.Flush()
}

// seal flushes and closes the active segment file and appends its
// manifest entry (uncompressed for now).
func (w *RotatingWriter) seal() (SegmentInfo, error) {
	info := SegmentInfo{
		Name:    segmentName(w.seq),
		Events:  w.events,
		FirstAt: w.firstAt,
		LastAt:  w.lastAt,
		Bytes:   w.size,
		CRC32:   w.crc.Sum32(),
	}
	if err := w.bw.Flush(); err != nil {
		_ = w.f.Close() // the flush error is the root cause; the descriptor must not outlive the segment
		return info, fmt.Errorf("journal: flushing %s: %w", info.Name, err)
	}
	if err := w.f.Close(); err != nil {
		return info, fmt.Errorf("journal: closing %s: %w", info.Name, err)
	}
	return info, nil
}

// compress gzips a sealed segment in place: run-NNNNN.jsonl becomes
// run-NNNNN.jsonl.gz and the plain file is removed. The checksum in the
// manifest stays that of the uncompressed bytes, so verification and the
// byte-equivalence gate see through the archival step.
func (w *RotatingWriter) compress(info *SegmentInfo) error {
	plain := filepath.Join(w.cfg.Dir, info.Name)
	src, err := os.Open(plain)
	if err != nil {
		return fmt.Errorf("journal: compressing %s: %w", info.Name, err)
	}
	defer src.Close() //lint:allow resourcelifecycle:dropped-error read side of the archival copy; the write side is checked
	if err := writeArchive(plain+".gz", src); err != nil {
		return fmt.Errorf("journal: compressing %s: %w", info.Name, err)
	}
	if err := os.Remove(plain); err != nil {
		return fmt.Errorf("journal: removing %s after archival: %w", info.Name, err)
	}
	info.Name += ".gz"
	info.Compressed = true
	return nil
}

// writeArchive gzips src into a new file at path, closing both the gzip
// stream and the file on every path. Any failure removes the partial
// archive so an error never strands a stray .gz next to the plain
// segment it was meant to replace (the plain file is only removed by the
// caller after a fully successful archival).
//
// Archival runs at gzip.BestSpeed: deflate at the default level cost more
// CPU than the simulation in checked, journaled runs, and BestSpeed
// compresses ~4× faster for archives ~27% larger (DESIGN §12).
func writeArchive(path string, src io.Reader) error {
	dst, err := os.Create(path)
	if err != nil {
		return err
	}
	gz, err := gzip.NewWriterLevel(dst, gzip.BestSpeed)
	if err == nil {
		_, err = io.Copy(gz, src)
		if cerr := gz.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(path) // best-effort cleanup; the write error is the root cause
		return err
	}
	return nil
}

// retain enforces the retention cap over completed segments.
func (w *RotatingWriter) retain() error {
	if w.cfg.Retain <= 0 {
		return nil
	}
	for len(w.manifest.Segments) > w.cfg.Retain {
		victim := w.manifest.Segments[0]
		if err := os.Remove(filepath.Join(w.cfg.Dir, victim.Name)); err != nil {
			return fmt.Errorf("journal: retention removing %s: %w", victim.Name, err)
		}
		w.manifest.Segments = w.manifest.Segments[1:]
		w.manifest.RemovedSegments++
	}
	return nil
}

// rotate seals, archives and accounts the active segment, then opens the
// next one.
func (w *RotatingWriter) rotate() error {
	info, err := w.seal()
	if err != nil {
		return err
	}
	if w.cfg.Compress {
		if err := w.compress(&info); err != nil {
			return err
		}
	}
	w.manifest.Segments = append(w.manifest.Segments, info)
	if err := w.retain(); err != nil {
		return err
	}
	return w.openSegment(w.seq + 1)
}

// SetWriterStats attaches the async sink's self-telemetry for the
// manifest; call before Close.
func (w *RotatingWriter) SetWriterStats(ws WriterStats) {
	w.manifest.Writer = &ws
}

// Manifest returns a snapshot of the manifest as accounted so far
// (completed segments only until Close seals the active one).
func (w *RotatingWriter) Manifest() Manifest { return w.manifest }

// Close seals the active segment (dropping it instead if it is empty and
// not the only one), writes the manifest, and finalizes the journal.
func (w *RotatingWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
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
		if w.cfg.Compress {
			if err := w.compress(&info); err != nil {
				return err
			}
		}
		w.manifest.Segments = append(w.manifest.Segments, info)
		if err := w.retain(); err != nil {
			return err
		}
	}
	return WriteManifest(w.cfg.Dir, &w.manifest)
}
