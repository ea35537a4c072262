package journal

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
)

// genEvents builds a deterministic event sequence exercising every kind
// and optional-field combination the encoder distinguishes.
func genEvents(n int, seed int64) []telemetry.Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]telemetry.Event, n)
	var at sim.Time
	for i := range evs {
		at += sim.Time(rng.Intn(5000))
		kind := telemetry.Kinds[rng.Intn(len(telemetry.Kinds))]
		ev := telemetry.Event{At: at, Kind: kind, Disk: -1, Pair: -1}
		switch kind {
		case telemetry.KindRequestDone:
			ev.Write = rng.Intn(2) == 0
			ev.Bytes = int64(rng.Intn(1 << 20))
			ev.LatencyUs = int64(rng.Intn(1e6))
		case telemetry.KindSpinUp, telemetry.KindSpinDown:
			ev.Disk = rng.Intn(40)
		case telemetry.KindRotation, telemetry.KindDestageStart, telemetry.KindDestageDone:
			ev.Pair = rng.Intn(20)
		case telemetry.KindLogInvalidate:
			ev.Pair = rng.Intn(20)
			ev.Bytes = int64(rng.Intn(1 << 24))
		case telemetry.KindCacheHit, telemetry.KindCacheMiss:
			ev.Pair = rng.Intn(20) - 1
			ev.Bytes = int64(rng.Intn(1 << 16))
		case telemetry.KindProbe:
			ev.States = strings.Repeat("AISUDF", 3)[:rng.Intn(18)]
			ev.LogCap = int64(rng.Intn(1 << 30))
			if ev.LogCap > 0 {
				ev.LogUsed = int64(rng.Intn(int(ev.LogCap)))
			}
			ev.Backlog = int64(rng.Intn(1 << 20))
		}
		evs[i] = ev
	}
	return evs
}

// encodeAll renders events exactly as the synchronous JSONLSink would.
func encodeAll(evs []telemetry.Event) []byte {
	var out []byte
	for _, ev := range evs {
		out = telemetry.AppendEvent(out, ev)
	}
	return out
}

// writeRotated pushes events through a RotatingWriter synchronously.
func writeRotated(t *testing.T, dir string, cfg RotateConfig, evs []telemetry.Event) {
	t.Helper()
	cfg.Dir = dir
	w, err := NewRotatingWriter(cfg)
	if err != nil {
		t.Fatalf("NewRotatingWriter: %v", err)
	}
	var buf []byte
	for _, ev := range evs {
		buf = telemetry.AppendEvent(buf[:0], ev)
		if err := w.WriteEvent(buf, ev.At); err != nil {
			t.Fatalf("WriteEvent: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// readAll drains a Reader.
func readAll(t *testing.T, path string) []telemetry.Event {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	defer r.Close()
	var out []telemetry.Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, ev)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return out
}

// concatSegments decompresses and concatenates a directory's segments in
// order — the byte-equivalence view of a rotated journal.
func concatSegments(t *testing.T, dir string) []byte {
	t.Helper()
	files, err := segmentFiles(dir)
	if err != nil {
		t.Fatalf("segmentFiles: %v", err)
	}
	var out []byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(f, ".gz") {
			gz, err := gzip.NewReader(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			if b, err = io.ReadAll(gz); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
		}
		out = append(out, b...)
	}
	return out
}

func TestRotatingWriterSegmentsAndManifest(t *testing.T) {
	dir := t.TempDir()
	evs := genEvents(500, 1)
	writeRotated(t, dir, RotateConfig{SegmentBytes: 2048, Compress: true}, evs)

	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) < 3 {
		t.Fatalf("expected several segments, got %d", len(m.Segments))
	}
	if got := m.Events(); got != int64(len(evs)) {
		t.Fatalf("manifest counts %d events, wrote %d", got, len(evs))
	}
	for i, s := range m.Segments {
		if !s.Compressed || !strings.HasSuffix(s.Name, ".jsonl.gz") {
			t.Fatalf("segment %d not archived: %+v", i, s)
		}
		if s.Events == 0 || s.Bytes == 0 || s.CRC32 == 0 {
			t.Fatalf("segment %d has empty accounting: %+v", i, s)
		}
		if s.FirstAt > s.LastAt {
			t.Fatalf("segment %d time bounds inverted: %+v", i, s)
		}
		if i > 0 && m.Segments[i-1].LastAt > s.FirstAt {
			t.Fatalf("segments %d/%d out of order", i-1, i)
		}
	}

	// Concatenated decompressed segments == the synchronous encoding.
	if got, want := concatSegments(t, dir), encodeAll(evs); !bytes.Equal(got, want) {
		t.Fatalf("segment concatenation diverges from single-file encoding (%d vs %d bytes)", len(got), len(want))
	}

	// The streaming reader yields the events back, in order, equal.
	got := readAll(t, dir)
	if len(got) != len(evs) {
		t.Fatalf("reader yielded %d events, wrote %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], evs[i])
		}
	}

	// And the manifest verifies.
	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestRotatingWriterUncompressedAndSingleSegment(t *testing.T) {
	evs := genEvents(100, 2)

	t.Run("uncompressed-rotation", func(t *testing.T) {
		dir := t.TempDir()
		writeRotated(t, dir, RotateConfig{SegmentBytes: 1024}, evs)
		m, err := Verify(dir)
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		for _, s := range m.Segments {
			if s.Compressed {
				t.Fatalf("segment %s compressed without Compress", s.Name)
			}
		}
		if got, want := concatSegments(t, dir), encodeAll(evs); !bytes.Equal(got, want) {
			t.Fatal("uncompressed segments diverge from baseline")
		}
	})

	t.Run("single-unbounded-segment", func(t *testing.T) {
		dir := t.TempDir()
		writeRotated(t, dir, RotateConfig{}, evs)
		m, err := Verify(dir)
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if len(m.Segments) != 1 {
			t.Fatalf("expected 1 segment, got %d", len(m.Segments))
		}
	})

	t.Run("empty-run", func(t *testing.T) {
		dir := t.TempDir()
		writeRotated(t, dir, RotateConfig{SegmentBytes: 1024, Compress: true}, nil)
		m, err := Verify(dir)
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if len(m.Segments) != 1 || m.Segments[0].Events != 0 {
			t.Fatalf("empty run manifest: %+v", m)
		}
		if got := readAll(t, dir); len(got) != 0 {
			t.Fatalf("empty run yielded %d events", len(got))
		}
	})
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	evs := genEvents(300, 4)
	writeRotated(t, dir, RotateConfig{SegmentBytes: 2048, Compress: false}, evs)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the middle segment: CRC must catch it.
	victim := filepath.Join(dir, m.Segments[len(m.Segments)/2].Name)
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x20
	if err := os.WriteFile(victim, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("Verify accepted a corrupted segment")
	}

	// A stray segment file must be flagged too.
	if err := os.WriteFile(victim, b, 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, segmentName(999))
	if err := os.WriteFile(stray, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), "not in the manifest") {
		t.Fatalf("Verify missed the stray segment: %v", err)
	}
	if err := os.Remove(stray); err != nil {
		t.Fatal(err)
	}

	// A deleted segment must be flagged.
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("Verify accepted a missing segment")
	}
}

func TestOpenSingleFileMatchesParseJournal(t *testing.T) {
	evs := genEvents(200, 5)
	raw := encodeAll(evs)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, path)
	want, err := telemetry.ParseJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reader: %d events, ParseJournal: %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Fatal("Open accepted a missing path")
	}
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("Open accepted a directory with no segments")
	}

	// Garbage line surfaces with file and line position.
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{\"at\":1,\"kind\":\"SpinUp\",\"disk\":3}\n{nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); err != nil {
		t.Fatalf("first line: %v", err)
	}
	_, err = r.Next()
	if err == nil || errors.Is(err, io.EOF) || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("garbage line error = %v", err)
	}
}

func TestDuplicateSegmentDetected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "run-00001.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run-00001.jsonl.gz"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a plain+compressed duplicate segment")
	}
}

// TestRotateConfigValidate: rotation settings need a directory to
// journal into, negative sizes are errors, and the writer refuses what
// Validate refuses.
func TestRotateConfigValidate(t *testing.T) {
	for _, c := range []struct {
		cfg  RotateConfig
		want string // substring of the error; "" accepts
	}{
		{RotateConfig{}, ""},
		{RotateConfig{Dir: "j"}, ""},
		{RotateConfig{Dir: "j", SegmentBytes: 65536, Compress: true}, ""},
		{RotateConfig{SegmentBytes: 65536}, "require -journal"},
		{RotateConfig{Compress: true}, "require -journal"},
		{RotateConfig{Dir: "j", SegmentBytes: -1}, "negative segment size"},
		{RotateConfig{SegmentBytes: -1}, "negative segment size"},
	} {
		err := c.cfg.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v rejected: %v", c.cfg, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one containing %q", c.cfg, err, c.want)
		}
		if c.want != "" && c.cfg.Dir != "" {
			c.cfg.Dir = t.TempDir()
			if w, err := NewRotatingWriter(c.cfg); err == nil {
				t.Errorf("NewRotatingWriter accepted %+v", c.cfg)
				_ = w.Close() // the test already failed
			}
		}
	}
}

func TestRerunReplacesStaleJournal(t *testing.T) {
	// A rerun into the same directory must behave like os.Create on a
	// file: the previous journal disappears entirely, including segments
	// past the new run's end that would otherwise fail verification as
	// stray files.
	dir := t.TempDir()
	writeRotated(t, dir, RotateConfig{Dir: dir, SegmentBytes: 256, Compress: true}, genEvents(500, 21))
	short := genEvents(40, 22)
	writeRotated(t, dir, RotateConfig{Dir: dir, SegmentBytes: 256}, short)
	if _, err := Verify(dir); err != nil {
		t.Fatalf("rerun journal does not verify: %v", err)
	}
	got := readAll(t, dir)
	if len(got) != len(short) {
		t.Fatalf("rerun journal holds %d events, want %d", len(got), len(short))
	}
	for i := range short {
		if got[i] != short[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], short[i])
		}
	}
}

func TestRotatingWriterWriteErrorMidSegment(t *testing.T) {
	// Segment 2 is a link to /dev/full, so its first write to the file
	// fails with ENOSPC partway through the segment.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail writes with")
	}
	dir := t.TempDir()
	w, err := NewRotatingWriter(RotateConfig{Dir: dir, SegmentBytes: 2048, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	seg2 := filepath.Join(dir, segmentName(2)+".gz")
	if err := os.Symlink("/dev/full", seg2); err != nil {
		t.Skip("cannot link to /dev/full:", err)
	}
	var buf []byte
	evs := genEvents(400, 14)
	i := 0
	for ; w.seq < 2; i++ {
		buf = telemetry.AppendEvent(buf[:0], evs[i])
		if err := w.WriteEvent(buf, evs[i].At); err != nil {
			t.Fatalf("WriteEvent into segment 1: %v", err)
		}
	}
	f := w.f
	for j := 0; j < 3; j, i = j+1, i+1 {
		buf = telemetry.AppendEvent(buf[:0], evs[i])
		if err := w.WriteEvent(buf, evs[i].At); err != nil {
			t.Fatalf("buffered WriteEvent into segment 2: %v", err)
		}
	}
	if err := w.Flush(); err == nil {
		t.Fatal("Flush into a full device succeeded")
	}
	if _, err := os.Lstat(seg2); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed segment left behind: %v", err)
	}
	if err := f.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("failed segment's descriptor still open: Close = %v", err)
	}
	buf = telemetry.AppendEvent(buf[:0], evs[i])
	if err := w.WriteEvent(buf, evs[i].At); err == nil {
		t.Fatal("WriteEvent after a write error succeeded")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after a write error succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed journal wrote a manifest: %v", err)
	}
}

// readCut drains the journal at path, failing on any error but io.EOF,
// and returns the events and whether the Reader reported a cut.
func readCut(t *testing.T, path string) ([]telemetry.Event, bool) {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	defer r.Close()
	var out []telemetry.Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next after %d events: %v", len(out), err)
		}
		out = append(out, ev)
	}
	// A second call after the end stays at the end.
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next past the end: %v, want io.EOF", err)
	}
	return out, r.Truncated()
}

// writeGzipCut writes lines to path as a gzip stream flushed but never
// closed: no trailer, as a crash leaves a compressed active segment.
func writeGzipCut(t *testing.T, path string, lines []byte) {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(lines); err != nil {
		t.Fatal(err)
	}
	if err := gz.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReaderStopsAtCrashCut reads journals whose last segment a crash
// cut: the Reader returns every complete line, then io.EOF, and reports
// the cut.
func TestReaderStopsAtCrashCut(t *testing.T) {
	evs := genEvents(100, 11)
	all := encodeAll(evs)
	lastLine := bytes.LastIndexByte(all[:len(all)-1], '\n') + 1
	for _, c := range []struct {
		name  string
		write func(t *testing.T, dir string)
		want  int // events read before the cut
	}{
		{"gzip stream without trailer", func(t *testing.T, dir string) {
			// A compressing writer flushed but never closed.
			w, err := NewRotatingWriter(RotateConfig{Dir: dir, Compress: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { w.Close() })
			for i, ev := range evs {
				if err := w.WriteEvent(all[lineStart(all, i):lineStart(all, i+1)], ev.At); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}, 100},
		{"empty gzip segment after a rotation", func(t *testing.T, dir string) {
			// Every event rotates, so the active segment is still empty.
			w, err := NewRotatingWriter(RotateConfig{Dir: dir, SegmentBytes: 1, Compress: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { w.Close() })
			for i, ev := range evs {
				if err := w.WriteEvent(all[lineStart(all, i):lineStart(all, i+1)], ev.At); err != nil {
					t.Fatal(err)
				}
			}
			if st, err := os.Stat(filepath.Join(dir, "run-00101.jsonl.gz")); err != nil || st.Size() != 0 {
				t.Fatalf("active segment: %v, %v; want an empty file", st, err)
			}
		}, 100},
		{"gzip segment cut inside a line", func(t *testing.T, dir string) {
			writeGzipCut(t, filepath.Join(dir, "run-00001.jsonl.gz"), all[:lastLine+5])
		}, 99},
		{"plain segment cut inside a line", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "run-00001.jsonl"), all[:lastLine], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "run-00002.jsonl"), all[lastLine:len(all)-1], 0o644); err != nil {
				t.Fatal(err)
			}
		}, 99},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.write(t, dir)
			got, cut := readCut(t, dir)
			if !cut {
				t.Error("Truncated() = false after a cut")
			}
			if len(got) != c.want {
				t.Fatalf("read %d events, want %d", len(got), c.want)
			}
			if !bytes.Equal(encodeAll(got), all[:lineStart(all, c.want)]) {
				t.Fatal("events read before the cut differ from those written")
			}
		})
	}

	// A sealed journal reads without a cut.
	dir := t.TempDir()
	writeRotated(t, dir, RotateConfig{SegmentBytes: 2048, Compress: true}, evs)
	if got, cut := readCut(t, dir); cut || len(got) != len(evs) {
		t.Fatalf("sealed journal: %d events, Truncated() = %v; want %d, false", len(got), cut, len(evs))
	}
}

// lineStart returns the offset of line i of the encoded journal b, or
// len(b) past its last line.
func lineStart(b []byte, i int) int {
	off := 0
	for ; i > 0 && off < len(b); i-- {
		off += bytes.IndexByte(b[off:], '\n') + 1
	}
	return off
}

// TestReaderEarlierSegmentsStayStrict: a cut before the last segment is
// corruption, not a crash, since rotation seals a segment before it opens
// the next one.
func TestReaderEarlierSegmentsStayStrict(t *testing.T) {
	all := encodeAll(genEvents(20, 12))
	half := lineStart(all, 10)
	for _, c := range []struct {
		name  string
		first func(t *testing.T, path string)
		want  string
	}{
		{"gzip stream without trailer", func(t *testing.T, path string) { writeGzipCut(t, path+".gz", all[:half]) }, "unexpected EOF"},
		{"empty gzip segment", func(t *testing.T, path string) {
			if err := os.WriteFile(path+".gz", nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "EOF"},
		{"line without its newline", func(t *testing.T, path string) {
			if err := os.WriteFile(path, all[:half-3], 0o644); err != nil {
				t.Fatal(err)
			}
		}, "line 10"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.first(t, filepath.Join(dir, "run-00001.jsonl"))
			if err := os.WriteFile(filepath.Join(dir, "run-00002.jsonl"), all[half:], 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for {
				_, err := r.Next()
				if err == io.EOF {
					t.Fatal("journal read to its end past a cut first segment")
				}
				if err != nil {
					if !strings.Contains(err.Error(), c.want) {
						t.Fatalf("error %q, want one naming %q", err, c.want)
					}
					break
				}
			}
			if r.Truncated() {
				t.Error("Truncated() = true for a cut before the last segment")
			}
		})
	}
}
