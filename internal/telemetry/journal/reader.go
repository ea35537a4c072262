package journal

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/rolo-storage/rolo/internal/telemetry"
)

// Reader streams a journal's events in order — one segment after the
// next, one line at a time — without ever materializing the journal in
// memory. cmd/rolostat's folds run over it, so analysis cost is
// constant-memory in the event count.
//
//rolosan:resource
type Reader struct {
	files []string // segment paths, in replay order
	idx   int      // next file to open
	cur   string   // file currently being read (for error messages)
	line  int

	f  *os.File
	gz *gzip.Reader
	sc *bufio.Scanner
}

// isSegmentName reports whether a directory entry is a journal segment
// and returns its ordering key (the plain name without the .gz suffix).
func isSegmentName(name string) (key string, ok bool) {
	key = strings.TrimSuffix(name, ".gz")
	if !strings.HasPrefix(key, "run-") || !strings.HasSuffix(key, ".jsonl") {
		return "", false
	}
	return key, true
}

// segmentFiles lists dir's segment files in replay order. Zero-padded
// sequence numbers make the lexical order the numeric order.
func segmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	type seg struct{ key, name string }
	var segs []seg
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if key, ok := isSegmentName(e.Name()); ok {
			segs = append(segs, seg{key, e.Name()})
		}
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("journal: %s contains no journal segments (run-*.jsonl[.gz])", dir)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].key < segs[j].key })
	files := make([]string, len(segs))
	for i, s := range segs {
		if i > 0 && segs[i-1].key == s.key {
			return nil, fmt.Errorf("journal: %s holds both %s and %s for one segment (interrupted archival?)",
				dir, segs[i-1].name, s.name)
		}
		files[i] = filepath.Join(dir, s.name)
	}
	return files, nil
}

// Open opens a journal for streaming: either a single JSONL file
// (optionally gzip-compressed) or a rotated journal directory, whose
// plain and compressed segments are iterated in order.
func Open(path string) (*Reader, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if !st.IsDir() {
		return &Reader{files: []string{path}}, nil
	}
	files, err := segmentFiles(path)
	if err != nil {
		return nil, err
	}
	return &Reader{files: files}, nil
}

// nextFile closes the current segment and opens the following one.
func (r *Reader) nextFile() error {
	if err := r.closeCurrent(); err != nil {
		return err
	}
	if r.idx >= len(r.files) {
		return io.EOF
	}
	path := r.files[r.idx]
	r.idx++
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	var src io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			_ = f.Close() // already failing; the gzip open error is the root cause
			return fmt.Errorf("journal: %s: %w", path, err)
		}
		r.gz = gz
		src = gz
	}
	r.f = f
	r.cur = path
	r.line = 0
	r.sc = bufio.NewScanner(src)
	r.sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return nil
}

func (r *Reader) closeCurrent() error {
	var err error
	if r.gz != nil {
		err = r.gz.Close()
		r.gz = nil
	}
	if r.f != nil {
		if cerr := r.f.Close(); err == nil {
			err = cerr
		}
		r.f = nil
	}
	r.sc = nil
	if err != nil {
		return fmt.Errorf("journal: closing %s: %w", r.cur, err)
	}
	return nil
}

// Next returns the next event in journal order. It returns io.EOF after
// the last event of the last segment.
func (r *Reader) Next() (telemetry.Event, error) {
	for {
		if r.sc == nil {
			if err := r.nextFile(); err != nil {
				return telemetry.Event{}, err
			}
		}
		for r.sc.Scan() {
			r.line++
			raw := r.sc.Bytes()
			if len(raw) == 0 {
				continue
			}
			ev, err := telemetry.UnmarshalEvent(raw)
			if err != nil {
				return telemetry.Event{}, fmt.Errorf("journal: %s line %d: %w", r.cur, r.line, err)
			}
			return ev, nil
		}
		if err := r.sc.Err(); err != nil {
			return telemetry.Event{}, fmt.Errorf("journal: %s line %d: %w", r.cur, r.line, err)
		}
		r.sc = nil // segment exhausted; advance
	}
}

// Close releases the reader's file handles. It is safe after EOF.
func (r *Reader) Close() error {
	r.idx = len(r.files)
	return r.closeCurrent()
}

// Verify checks a rotated journal directory against its manifest: every
// listed segment must exist with the recorded uncompressed byte size,
// CRC32, event count and first/last simulation times, and no stray
// segment files may exist outside the manifest. It streams each segment
// once, so verification is constant-memory too. The returned manifest
// lets callers report totals.
func Verify(dir string) (*Manifest, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	listed := make(map[string]bool, len(m.Segments))
	for _, s := range m.Segments {
		listed[s.Name] = true
	}
	files, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if name := filepath.Base(f); !listed[name] {
			return nil, fmt.Errorf("journal: %s is not in the manifest", name)
		}
	}
	if len(files) != len(m.Segments) {
		return nil, fmt.Errorf("journal: manifest lists %d segments, directory has %d", len(m.Segments), len(files))
	}
	for _, want := range m.Segments {
		if err := verifySegment(dir, want); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// verifySegment recomputes one segment's manifest entry from its bytes.
func verifySegment(dir string, want SegmentInfo) error {
	f, err := os.Open(filepath.Join(dir, want.Name))
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close() //lint:allow resourcelifecycle:dropped-error read-only verification pass, close error carries no data
	var src io.Reader = f
	if want.Compressed != strings.HasSuffix(want.Name, ".gz") {
		return fmt.Errorf("journal: %s: compressed flag disagrees with file name", want.Name)
	}
	if want.Compressed {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return fmt.Errorf("journal: %s: %w", want.Name, err)
		}
		defer gz.Close() //lint:allow resourcelifecycle:dropped-error read-only verification pass, close error carries no data
		src = gz
	}
	crc := crc32.NewIEEE()
	sc := bufio.NewScanner(io.TeeReader(src, crc))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	got := SegmentInfo{Name: want.Name, Compressed: want.Compressed}
	var firstLine, lastLine []byte
	for sc.Scan() {
		raw := sc.Bytes()
		got.Bytes += int64(len(raw)) + 1 // the scanner strips '\n'
		if len(raw) == 0 {
			continue
		}
		if got.Events == 0 {
			firstLine = append(firstLine[:0], raw...)
		}
		lastLine = append(lastLine[:0], raw...)
		got.Events++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("journal: %s: %w", want.Name, err)
	}
	if got.Events > 0 {
		first, err := telemetry.UnmarshalEvent(firstLine)
		if err != nil {
			return fmt.Errorf("journal: %s first event: %w", want.Name, err)
		}
		last, err := telemetry.UnmarshalEvent(lastLine)
		if err != nil {
			return fmt.Errorf("journal: %s last event: %w", want.Name, err)
		}
		got.FirstAt, got.LastAt = first.At, last.At
	}
	// The CRC covers the newlines the scanner stripped; TeeReader fed the
	// raw bytes through, so Sum32 is over the exact uncompressed stream.
	got.CRC32 = crc.Sum32()
	if got != want {
		return fmt.Errorf("journal: %s fails verification:\n  manifest: %+v\n  observed: %+v", want.Name, want, got)
	}
	return nil
}
