// Package journal is the telemetry journal's lifecycle layer: an
// asynchronous sink that moves event encoding and file IO off the
// simulation goroutine, a rotating writer that cuts size-capped JSONL
// segments and optionally streams them through gzip, a manifest
// describing every segment, and a streaming reader that iterates a
// journal — single file or rotated directory, plain or compressed — in
// order without ever holding it in memory.
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
// The writer side preserves the telemetry package's byte-determinism
// contract: with the blocking backpressure policy, the concatenation of
// the (decompressed) segments is byte-identical to the journal a
// synchronous telemetry.JSONLSink would have produced for the same run.
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

// WriterStats is the async sink's self-telemetry, recorded in the
// manifest on close so every journal carries the evidence of how it was
// written (the drop counter must be zero under the blocking policy).
type WriterStats struct {
	// Enqueued counts events accepted into the ring.
	Enqueued int64 `json:"enqueued"`
	// Written counts events the writer goroutine encoded and wrote.
	Written int64 `json:"written"`
	// Dropped counts events discarded: ring-full drops under PolicyDrop,
	// plus any events arriving after Close began.
	Dropped int64 `json:"dropped"`
	// PeakOccupancy is the high-water mark of events queued in the ring.
	PeakOccupancy int `json:"peak_occupancy"`
	// Capacity is the ring size the sink ran with.
	Capacity int `json:"capacity"`
	// Batches counts writer-goroutine drains; MaxBatch is the largest
	// single drain. Written/Batches is the mean batch size.
	Batches  int64 `json:"batches"`
	MaxBatch int   `json:"max_batch"`
}

// Manifest describes a rotated journal directory: every segment in
// order, and the async writer's self-telemetry when the journal was
// written through an AsyncSink.
type Manifest struct {
	Segments []SegmentInfo `json:"segments"`
	// Writer carries the async sink's close-time self-telemetry, when the
	// journal was written asynchronously.
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
