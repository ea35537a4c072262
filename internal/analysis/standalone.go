package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// listPackage is the subset of `go list -json` output the standalone
// driver consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
}

// RunStandalone loads the packages matching the go list patterns and
// applies the analyzers, printing findings to w. It shells out to the go
// command, so it must run inside a module. Only the packages' non-test
// files are loaded, and packages under testdata are skipped.
//
// The load is shared across the whole invocation: one `go list -deps
// -export` walk enumerates targets and dependencies together, and a
// single FileSet and export-data importer serve every package, so each
// dependency's export data is parsed once per run rather than once per
// target. Dependencies inside the module are analyzed first (their
// findings discarded) so their facts reach the targets.
//
// The exit code is 0 when clean, 1 on a driver error and 2 on findings.
func RunStandalone(patterns []string, analyzers []*Analyzer, w io.Writer) int {
	findings, err := analyzePatterns(patterns, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rololint: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintf(w, "%s: %s\n", f.Pos, f.Message)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

func analyzePatterns(patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	// One walk over the dependency closure: -deps emits every package
	// after all of its dependencies (the topological order the fact
	// propagation needs) and marks non-target packages DepOnly; -export
	// populates .Export from the build cache, compiling as needed.
	pkgs, err := goList(append([]string{"-deps", "-export"}, patterns...))
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	// One FileSet and one export-data importer for the whole run; the
	// gc importer caches by import path, so each dependency's export
	// data is read and materialized at most once.
	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	facts := make(Facts)
	var all []Finding
	for _, p := range pkgs {
		if p.Standard || len(p.GoFiles) == 0 || IsFixturePath(p.Dir) {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, name := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, name)
		}
		unit, err := TypecheckFiles(fset, p.ImportPath, files, imp, "")
		if err != nil {
			return nil, err
		}
		findings, exported, err := RunAnalyzersFacts(unit, analyzers, facts)
		if err != nil {
			return nil, err
		}
		for k, v := range exported {
			facts[k] = v
		}
		if !p.DepOnly {
			all = append(all, findings...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
	return all, nil
}

// goList runs `go list -json` with the given extra arguments and decodes
// the package stream.
func goList(args []string) ([]listPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
