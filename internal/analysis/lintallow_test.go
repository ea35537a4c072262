package analysis_test

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/rolo-storage/rolo/internal/analysis"
	"github.com/rolo-storage/rolo/internal/analysis/simdeterminism"
)

// lintallowSrc exercises every lintallow verdict against one real
// analyzer. simdeterminism's map-iteration check needs no imports, so the
// package type-checks without an importer. Each waiver sits on a line
// the test finds by a unique marker.
const lintallowSrc = `package p

func live(liveMap map[string]int) (out []string) {
	for k := range liveMap { //lint:allow simdeterminism:map-iteration the caller sorts the keys
		out = append(out, k)
	}
	return out
}

func stale() int {
	return 1 //lint:allow simdeterminism:wall-clock nothing here reads the clock
}

func reasonless(bareMap map[string]int) (out []string) {
	for k := range bareMap { //lint:allow simdeterminism:map-iteration
		out = append(out, k)
	}
	return out
}

func unknown() int {
	return 2 //lint:allow nosuch:category names an analyzer outside the run
}

func retained() int {
	//lint:allow lintallow:missing-reason the bare waiver below is kept on purpose
	return 3 //lint:allow simdeterminism:wall-clock
}
`

// TestLintAllowVerdicts runs simdeterminism plus LintAllow over a small
// package and checks each waiver's verdict: a live waiver suppresses its
// finding and is not reported; a stale one, a reasonless one and one
// naming an unknown analyzer are each reported under their own category,
// with a message that says to remove the directive; and a lintallow-scoped
// waiver is never judged itself, so it can retain a waiver lintallow would
// otherwise report.
func TestLintAllowVerdicts(t *testing.T) {
	name := filepath.Join(t.TempDir(), "p.go")
	if err := os.WriteFile(name, []byte(lintallowSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	unit, err := analysis.TypecheckFiles(token.NewFileSet(), "example.com/m/internal/p", []string{name}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	findings, _, err := analysis.RunAnalyzersFacts(unit, []*analysis.Analyzer{simdeterminism.Analyzer, analysis.LintAllow}, nil)
	if err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(lintallowSrc, "\n")
	lineOf := func(marker string) int {
		t.Helper()
		for i, l := range lines {
			if strings.Contains(l, marker) {
				return i + 1
			}
		}
		t.Fatalf("fixture has no line containing %q", marker)
		return 0
	}
	cell := func(line int, rule string) string { return fmt.Sprintf("%d %s", line, rule) }
	want := []string{
		cell(lineOf("nothing here reads the clock"), "lintallow:stale"),
		cell(lineOf("range bareMap"), "simdeterminism:map-iteration"),
		cell(lineOf("range bareMap"), "lintallow:missing-reason"),
		cell(lineOf("nosuch:category"), "lintallow:unknown-analyzer"),
	}
	var got []string
	for _, f := range findings {
		got = append(got, cell(f.Pos.Line, f.Rule()))
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings (line rule):\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Each verdict's message names its remedy.
	for _, f := range findings {
		if f.Analyzer == analysis.LintAllow.Name && !strings.Contains(f.Message, "remove the directive") {
			t.Errorf("%s verdict %q does not say to remove the directive", f.Rule(), f.Message)
		}
	}
}
