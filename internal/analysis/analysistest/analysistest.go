// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against `// want` expectations, mirroring the x/tools
// package of the same name with only the standard library.
//
// Fixture layout follows the x/tools convention: a testdata directory
// containing src/<importpath>/*.go. Fixture packages may import each
// other (the harness resolves imports under testdata/src first) and the
// standard library (resolved by compiling GOROOT sources with the
// `source` importer, which needs no pre-built export data and therefore
// works in hermetic build environments).
//
// Expectations are written as trailing comments on the line a diagnostic
// is expected:
//
//	time.Now() // want `wall-clock`
//
// The string is a regular expression that must match the diagnostic
// message. Both backquoted and double-quoted forms are accepted, and a
// line may carry several expectations. Diagnostics with no matching
// expectation, and expectations with no matching diagnostic, fail the
// test.
package analysistest

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/rolo-storage/rolo/internal/analysis"
)

// Run applies the analyzer to each fixture package (an import path under
// testdata/src) and reports mismatches through t.
//
// Fixture dependencies under testdata/src are analyzed first (their
// findings discarded) so the facts they export are available to the
// package under test, as the standalone driver does for module packages.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	ld := &loader{
		testdata: testdata,
		fset:     fset,
		units:    make(map[string]*analysis.Unit),
		std:      importer.ForCompiler(fset, "source", nil),
		facts:    make(analysis.Facts),
		analyzed: make(map[string]bool),
	}
	for _, path := range paths {
		unit, err := ld.load(path)
		if err != nil {
			t.Errorf("loading fixture %q: %v", path, err)
			continue
		}
		// Dependencies first: ld.order is post-order, so a package's
		// imports always precede it.
		depsOK := true
		for _, p := range ld.order {
			if p == path || ld.analyzed[p] {
				continue
			}
			if err := ld.analyze(p, a); err != nil {
				t.Errorf("analyzing fixture dependency %q: %v", p, err)
				depsOK = false
			}
		}
		if !depsOK {
			continue
		}
		findings, exported, err := analysis.RunAnalyzersFacts(unit, []*analysis.Analyzer{a}, ld.facts)
		if err != nil {
			t.Errorf("running %s on %q: %v", a.Name, path, err)
			continue
		}
		ld.mergeFacts(exported)
		ld.analyzed[path] = true
		checkExpectations(t, ld, path, findings)
	}
}

// analyze runs the analyzer over one already-loaded fixture package for
// its facts only.
func (l *loader) analyze(path string, a *analysis.Analyzer) error {
	_, exported, err := analysis.RunAnalyzersFacts(l.units[path], []*analysis.Analyzer{a}, l.facts)
	if err != nil {
		return err
	}
	l.mergeFacts(exported)
	l.analyzed[path] = true
	return nil
}

func (l *loader) mergeFacts(facts analysis.Facts) {
	for k, v := range facts {
		l.facts[k] = v
	}
}

// loader resolves fixture packages under testdata/src, falling back to
// the source importer for everything else.
type loader struct {
	testdata string
	fset     *token.FileSet
	units    map[string]*analysis.Unit
	std      types.Importer
	order    []string // successful loads, post-order (dependencies first)
	facts    analysis.Facts
	analyzed map[string]bool
}

func (l *loader) load(path string) (*analysis.Unit, error) {
	if u, ok := l.units[path]; ok {
		if u == nil {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return u, nil
	}
	dir := filepath.Join(l.testdata, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	l.units[path] = nil // cycle marker
	unit, err := analysis.TypecheckFiles(l.fset, path, files, l, "")
	if err != nil {
		delete(l.units, path)
		return nil, err
	}
	l.units[path] = unit
	l.order = append(l.order, path)
	return unit, nil
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.testdata, "src", filepath.FromSlash(path)); dirExists(dir) {
		unit, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return unit.Pkg, nil
	}
	return l.std.Import(path)
}

func dirExists(dir string) bool {
	info, err := os.Stat(dir)
	return err == nil && info.IsDir()
}

// expectation is one `// want` pattern.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

func checkExpectations(t *testing.T, ld *loader, path string, findings []analysis.Finding) {
	t.Helper()
	unit := ld.units[path]
	var wants []*expectation
	for _, f := range unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				posn := ld.fset.Position(c.Pos())
				patterns, err := parseWant(c.Text)
				if err != nil {
					t.Errorf("%s: %v", posn, err)
					continue
				}
				for _, p := range patterns {
					wants = append(wants, &expectation{file: posn.Filename, line: posn.Line, pattern: p})
				}
			}
		}
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.pattern.MatchString(f.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.pattern)
		}
	}
}

// parseWant extracts the regexp patterns from a `// want` comment, or
// nil if the comment is not an expectation.
func parseWant(comment string) ([]*regexp.Regexp, error) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	rest, ok := strings.CutPrefix(text, "want ")
	if !ok {
		return nil, nil
	}
	var patterns []*regexp.Regexp
	rest = strings.TrimSpace(rest)
	for rest != "" {
		var raw string
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated ` in want comment")
			}
			raw = rest[1 : 1+end]
			rest = rest[end+2:]
		case '"':
			var err error
			s, tail, ok := cutQuoted(rest)
			if !ok {
				return nil, fmt.Errorf("malformed quoted string in want comment")
			}
			raw, err = strconv.Unquote(s)
			if err != nil {
				return nil, fmt.Errorf("want comment: %v", err)
			}
			rest = tail
		default:
			return nil, fmt.Errorf("want comment: expected quoted regexp, got %q", rest)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			return nil, fmt.Errorf("want comment: %v", err)
		}
		patterns = append(patterns, re)
		rest = strings.TrimSpace(rest)
	}
	return patterns, nil
}

// cutQuoted splits a leading double-quoted Go string literal (with
// escapes) off s, returning the literal (quotes included) and the tail.
func cutQuoted(s string) (lit, tail string, ok bool) {
	if s == "" || s[0] != '"' {
		return "", "", false
	}
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return s[:i+1], s[i+1:], true
		}
	}
	return "", "", false
}
