// Package journal is the telemetry journal's lifecycle layer: a
// rotating writer, the telemetry sink that encodes each event on the
// emitting goroutine and cuts size-capped JSONL segments, optionally
// streamed through gzip; a manifest describing every segment; and a
// streaming reader that iterates a journal — single file or rotated
// directory, plain or compressed — in order without ever holding it in
// memory.
//
// Layout of a rotated, compressed journal directory (without compression
// the segments are run-NNNNN.jsonl):
//
//	run-00001.jsonl.gz    completed segment
//	run-00002.jsonl.gz    ...
//	run-00003.jsonl.gz    active segment: a gzip stream without its trailer
//	                      until Close seals it
//	manifest.json         per-segment event counts, time bounds, checksums
//
// The writer preserves the telemetry package's byte-determinism
// contract: the concatenation of the (decompressed) segments is
// byte-identical to the journal a telemetry.JSONLSink produces for the
// same run, and the whole directory, manifest included, is a pure
// function of the run's configuration and trace.
package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/rolo-storage/rolo/internal/sim"
)

// ManifestName is the manifest file name inside a rotated journal
// directory.
const ManifestName = "manifest.json"

// SegmentInfo describes one journal segment in the manifest.
type SegmentInfo struct {
	// Name is the segment file name within the journal directory
	// (run-00001.jsonl, or run-00001.jsonl.gz once compressed).
	Name string `json:"name"`
	// Events is the number of journal events (JSONL lines) in the segment.
	Events int64 `json:"events"`
	// FirstAt and LastAt bound the simulation times of the segment's
	// events in microseconds (both 0 for an empty segment).
	FirstAt sim.Time `json:"first_at"`
	LastAt  sim.Time `json:"last_at"`
	// Bytes is the uncompressed JSONL byte size of the segment.
	Bytes int64 `json:"bytes"`
	// CRC32 is the IEEE checksum of the uncompressed segment bytes.
	CRC32 uint32 `json:"crc32"`
	// Compressed marks gzip-compressed segments.
	Compressed bool `json:"compressed,omitempty"`
}

// WriterStats records in the manifest how the journal was written. The
// writer runs on the emitting goroutine, so it never sheds an event and
// never queues one: Dropped and PeakOccupancy are always 0. They stay
// because perfbench, built against this package, fails a journal whose
// manifest lacks them or reports a drop.
type WriterStats struct {
	// Written is the segments' event total.
	Written int64 `json:"written"`
	// Dropped counts events lost on the way to a segment: always 0.
	Dropped int64 `json:"dropped"`
	// PeakOccupancy is the deepest queue of events waiting to be
	// written: always 0.
	PeakOccupancy int `json:"peak_occupancy"`
}

// Manifest describes a rotated journal directory: every segment in
// order, and the writer's stats.
type Manifest struct {
	Segments []SegmentInfo `json:"segments"`
	// Writer is recorded by RotatingWriter.Close.
	Writer *WriterStats `json:"writer,omitempty"`
}

// Events sums the event counts of all segments.
func (m *Manifest) Events() int64 {
	var n int64
	for _, s := range m.Segments {
		n += s.Events
	}
	return n
}

// WriteManifest atomically replaces dir's manifest (write to a temp file,
// then rename) so a crash mid-write never leaves a truncated manifest.
func WriteManifest(dir string, m *Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("journal: encoding manifest: %w", err)
	}
	b = append(b, '\n')
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("journal: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		return fmt.Errorf("journal: installing manifest: %w", err)
	}
	return nil
}

// ReadManifest loads dir's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("journal: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("journal: decoding manifest: %w", err)
	}
	return &m, nil
}
