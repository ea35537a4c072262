// Package analysis is a self-contained, stdlib-only miniature of the
// golang.org/x/tools/go/analysis framework, sized for this repository's
// needs: it defines the Analyzer and Pass types, runs a set of analyzers
// over one type-checked package, propagates per-object facts between
// packages (the bottom-up summary mechanism the interprocedural analyzers
// build on), and implements the `//lint:allow` suppression directive.
//
// Why not depend on x/tools? The reproduction is built and verified in
// hermetic environments with no module proxy, so the linter must compile
// from the standard library alone. The subset implemented here is small
// but no longer purely intra-package: analyzers may export JSON-encoded
// facts keyed by function (see facts.go), which the drivers keep in
// memory and hand to downstream packages.
//
// Two drivers sit on top of this package:
//
//   - standalone.go loads packages itself via `go list -deps -export`
//     (non-test files only), analyzes dependencies first so their facts
//     reach the targets — the `rololint ./...` gate;
//   - analysistest runs analyzers over fixture trees with `// want`
//     expectations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:allow <name>:<category> <reason>` directives. It must be a
	// valid identifier.
	Name string
	// Doc is the help text: first line is a one-sentence summary.
	Doc string
	// Run applies the analyzer to one package, reporting diagnostics
	// through pass.Reportf.
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Pass presents one type-checked package to an analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report   func(Diagnostic)
	imported Facts
	exported Facts
}

// A Diagnostic is one finding. Its Message states the defect and the
// remedy.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Category classifies the finding within its analyzer (e.g.
	// "wall-clock", "leak"). The `//lint:allow` escape hatch is scoped to
	// analyzer:category, so every report should carry one.
	Category string
}

// Reportf emits a diagnostic at pos with the given category and a
// formatted message.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Category: category, Message: fmt.Sprintf(format, args...)})
}

// A Finding is a positioned diagnostic attributed to an analyzer, as
// produced by RunAnalyzers after suppression filtering.
type Finding struct {
	Analyzer string
	Category string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Rule())
}

// Rule renders the finding's scoped identifier, "analyzer:category"
// (or just the analyzer name for uncategorized findings) — the token a
// `//lint:allow` directive must name to suppress it.
func (f Finding) Rule() string {
	if f.Category == "" {
		return f.Analyzer
	}
	return f.Analyzer + ":" + f.Category
}

// Unit is one package ready for analysis.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// LintAllow is the waiver-audit meta-check. It reports nothing of its
// own from Run; instead, when it is part of the analyzer list, the
// framework judges every `//lint:allow` directive after the other
// analyzers have finished: a directive that suppressed no diagnostic in
// the run is reported as stale, one with no reason as missing-reason,
// and one naming an analyzer absent from the run as unknown-analyzer. Directives scoped to lintallow itself are exempt
// (judging them would need a fixpoint), so `//lint:allow lintallow:stale
// <reason>` can retain a deliberately dormant waiver.
var LintAllow = &Analyzer{
	Name: "lintallow",
	Doc: "flag //lint:allow waivers that suppress nothing, lack a reason, or name an unknown analyzer\n" +
		"Waivers rot: the finding they excused gets fixed, the code moves, and the directive\n" +
		"remains, silencing the next genuine finding on that line. Running the suite with\n" +
		"lintallow enabled turns every such directive into a finding of its own.",
	Run: func(*Pass) error { return nil },
}

// RunAnalyzersFacts applies every analyzer to the unit and returns the
// surviving findings sorted by position, plus the facts the analyzers
// exported for downstream packages. imported holds the facts of the
// unit's dependencies (nil is an empty set).
//
// Diagnostics suppressed by a `//lint:allow <analyzer>:<category>
// <reason>` comment on the same line or the line immediately above are
// dropped; a directive with no reason does not suppress anything (the
// reason is the point of the escape hatch), and a directive naming only
// the analyzer suppresses only uncategorized findings — the category
// scoping is deliberate, so one escape hatch cannot blanket-silence an
// analyzer's other checks on the same line.
func RunAnalyzersFacts(u *Unit, analyzers []*Analyzer, imported Facts) ([]Finding, Facts, error) {
	allow := collectAllows(u.Fset, u.Files)
	exported := make(Facts)
	var findings []Finding
	report := func(name string) func(Diagnostic) {
		return func(d Diagnostic) {
			posn := u.Fset.Position(d.Pos)
			if allow.match(name, d.Category, posn) {
				return
			}
			findings = append(findings, Finding{
				Analyzer: name,
				Category: d.Category,
				Pos:      posn,
				Message:  d.Message,
			})
		}
	}
	auditing := false
	for _, a := range analyzers {
		if a.Name == LintAllow.Name {
			auditing = true
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			imported:  imported,
			exported:  exported,
		}
		pass.report = report(a.Name)
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	if auditing {
		// Judge the directives only after every analyzer has had its
		// chance to hit them. The emitted findings go through the same
		// report path, so a lintallow-scoped directive can waive them —
		// and lintallow-scoped directives are never judged themselves,
		// which keeps the audit a single pass rather than a fixpoint.
		auditAllows(analyzers, allow, report(LintAllow.Name))
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, exported, nil
}

// allowKey identifies one suppressed (file, line, rule) cell.
type allowKey struct {
	file string
	line int
	rule string // "analyzer" or "analyzer:category"
}

// an allowDirective is one parsed `//lint:allow` comment, tracked through
// the run so the audit can tell live waivers from stale ones.
type allowDirective struct {
	rule   string
	reason string
	pos    token.Pos
	posn   token.Position
	hits   int
}

type allowSet struct {
	byKey map[allowKey]*allowDirective
	all   []*allowDirective // file/position order
}

// match reports whether a diagnostic from the named analyzer and category
// at posn is covered by a directive on its line or the line above, and
// credits the covering directive with the hit. A directive must name the
// finding's exact analyzer:category pair (or the bare analyzer name for
// uncategorized findings).
func (s *allowSet) match(analyzer, category string, posn token.Position) bool {
	rule := analyzer
	if category != "" {
		rule = analyzer + ":" + category
	}
	d := s.byKey[allowKey{posn.Filename, posn.Line, rule}]
	if d == nil {
		d = s.byKey[allowKey{posn.Filename, posn.Line - 1, rule}]
	}
	if d == nil {
		return false
	}
	d.hits++
	return true
}

// AllowDirective is the comment prefix of the suppression escape hatch.
const AllowDirective = "lint:allow"

// collectAllows scans file comments for `//lint:allow <analyzer>:<category>
// <reason>` directives. The directive suppresses matching findings on its
// own line and the following line, so it works both as a trailing comment
// and as a comment above the offending statement. A directive without a
// reason suppresses nothing (the reason is the point of the escape hatch)
// but is still recorded, so the audit can flag it.
func collectAllows(fset *token.FileSet, files []*ast.File) *allowSet {
	set := &allowSet{byKey: make(map[allowKey]*allowDirective)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, AllowDirective)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue // bare "//lint:allow": not even a rule
				}
				d := &allowDirective{
					rule: fields[0],
					pos:  c.Pos(),
					posn: fset.Position(c.Pos()),
				}
				if len(fields) >= 2 {
					d.reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
					set.byKey[allowKey{d.posn.Filename, d.posn.Line, d.rule}] = d
				}
				set.all = append(set.all, d)
			}
		}
	}
	return set
}

// auditAllows emits the lintallow findings for a finished run: stale
// directives (zero hits), reasonless ones, and ones naming an analyzer
// that is not part of the run. Directives scoped to lintallow itself are
// exempt. The candidate set is computed before any finding is emitted, so
// the emitted findings' own allow matching cannot change the verdicts.
func auditAllows(analyzers []*Analyzer, allow *allowSet, report func(Diagnostic)) {
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name] = true
	}
	type verdict struct {
		d        *allowDirective
		category string
		message  string
	}
	var verdicts []verdict
	for _, d := range allow.all {
		analyzer, _, _ := strings.Cut(d.rule, ":")
		switch {
		case analyzer == LintAllow.Name:
			continue
		case d.reason == "":
			verdicts = append(verdicts, verdict{d, "missing-reason",
				fmt.Sprintf("//lint:allow %s has no reason, so it suppresses nothing; state why the finding is acceptable or remove the directive", d.rule)})
		case !names[analyzer]:
			verdicts = append(verdicts, verdict{d, "unknown-analyzer",
				fmt.Sprintf("//lint:allow %s names no analyzer in this run; fix the analyzer name or remove the directive", d.rule)})
		case d.hits == 0:
			verdicts = append(verdicts, verdict{d, "stale",
				fmt.Sprintf("//lint:allow %s suppresses nothing here: the waived finding is gone, so remove the directive (or waive this report with lintallow:stale if it must stay)", d.rule)})
		}
	}
	for _, v := range verdicts {
		report(Diagnostic{Pos: v.d.pos, Category: v.category, Message: v.message})
	}
}
