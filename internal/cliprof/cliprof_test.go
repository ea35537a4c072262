package cliprof

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestProfilerWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	p := &Profiler{cpuPath: filepath.Join(dir, "cpu.pprof"), memPath: filepath.Join(dir, "mem.pprof")}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{p.cpuPath, p.memPath} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

// TestProfilerBadPathFailsAtStart checks that an uncreatable profile path
// fails before the run, and that the failed Start leaves no CPU profile
// running behind it.
func TestProfilerBadPathFailsAtStart(t *testing.T) {
	dir := t.TempDir()
	p := &Profiler{cpuPath: filepath.Join(dir, "cpu.pprof"), memPath: filepath.Join(dir, "missing", "mem.pprof")}
	if err := p.Start(); err == nil || !strings.Contains(err.Error(), "memprofile") {
		t.Fatalf("Start = %v, want a memprofile error", err)
	}
	q := &Profiler{cpuPath: filepath.Join(dir, "again.pprof")}
	if err := q.Start(); err != nil {
		t.Fatalf("Start after a failed Start = %v", err)
	}
	if err := q.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := (&Profiler{}).Stop(); err != nil {
		t.Fatalf("Stop with no profiles = %v", err)
	}
}
