package analysis_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rolo-storage/rolo/internal/analysis"
	"github.com/rolo-storage/rolo/internal/analysis/resourcelifecycle"
)

// standaloneModule is a two-package module: package a declares a
// //rolosan:resource type, and package b leaks one. The leak is only
// visible in b if a's resource-type fact reaches it. A copy of the leak
// under testdata/ must never be reported.
var standaloneModule = map[string]string{
	"go.mod": "module example.com/m\n\ngo 1.22\n",
	"internal/a/a.go": `package a

// Handle carries a Close obligation.
//
//rolosan:resource
type Handle struct{}

// NewHandle hands the obligation to the caller.
func NewHandle() *Handle { return &Handle{} }

// Ping borrows the handle.
func (h *Handle) Ping() {}

// Close releases the handle.
func (h *Handle) Close() error { return nil }
`,
	"internal/b/b.go":            leakySrc,
	"internal/b/testdata/c/c.go": strings.Replace(leakySrc, "package b", "package c", 1),
}

const leakySrc = `package b

import "example.com/m/internal/a"

// Use opens a handle and never closes it.
func Use() {
	h := a.NewHandle()
	h.Ping()
}
`

const fixedSrc = `package b

import "example.com/m/internal/a"

// Use opens a handle and closes it.
func Use() error {
	h := a.NewHandle()
	h.Ping()
	return h.Close()
}
`

// TestRunStandaloneEndToEnd drives the standalone driver over a real
// module on disk: go list, export data, dependency-first fact
// propagation and the testdata skip.
func TestRunStandaloneEndToEnd(t *testing.T) {
	dir := t.TempDir()
	for name, src := range standaloneModule {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The driver runs go list in the process directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Errorf("restoring the working directory: %v", err)
		}
	})

	suite := []*analysis.Analyzer{resourcelifecycle.Analyzer, analysis.LintAllow}
	run := func(patterns ...string) (int, string) {
		t.Helper()
		var out bytes.Buffer
		code := analysis.RunStandalone(patterns, suite, &out)
		return code, out.String()
	}
	const leak = "b.go:7:7: *a.Handle returned by a.NewHandle is not closed on every path"

	// ./... reports the cross-package leak once and never descends into
	// testdata.
	code, out := run("./...")
	if code != 2 || strings.Count(out, "\n") != 1 || !strings.Contains(out, leak) {
		t.Fatalf("./...: exit %d, output:\n%s\nwant exit 2 and exactly the leak %q", code, out, leak)
	}
	// Naming b alone makes a a dependency-only package: it must still be
	// analyzed for its facts, or the leak goes unseen.
	if code, out := run("./internal/b"); code != 2 || !strings.Contains(out, leak) {
		t.Fatalf("./internal/b: exit %d, output:\n%s\nwant exit 2 and the leak", code, out)
	}
	// A pattern that names a fixture package explicitly is skipped too.
	if code, out := run("./internal/b/testdata/c"); code != 0 || out != "" {
		t.Fatalf("./internal/b/testdata/c: exit %d, output:\n%s\nwant exit 0 and no output", code, out)
	}

	if err := os.WriteFile(filepath.Join(dir, "internal/b/b.go"), []byte(fixedSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := run("./..."); code != 0 || out != "" {
		t.Fatalf("./... after the fix: exit %d, output:\n%s\nwant exit 0 and no output", code, out)
	}
}
