// Package invariantguard enforces the audited-mutation-helper discipline
// the RoloSan sanitizer depends on: in packages that declare helpers
// marked `rolosan:audited` in their doc comment, every mutation of shared
// log-space or dirty-set bookkeeping must go through such a helper.
//
// The sanitizer maintains a shadow ledger of expected log-space contents,
// fed exclusively by the audited helpers; a controller that calls
// logspace.Space.Alloc (or ReleaseTag, Reset) directly mutates
// the allocator behind the ledger's back, and the very next sweep reports
// a false "conservation" violation — or worse, a real corruption goes
// unnoticed because the ledger was corrupted in the same way. This
// analyzer turns that runtime failure mode into a compile-time finding.
//
// Two families of call are checked outside audited helpers:
//
//   - any call to a mutating logspace.Space method (Alloc, ReleaseTag,
//     Reset) — allocators are always shared state;
//   - calls to mutating intervals.Set methods (Add, Remove, Clear) whose
//     receiver is rooted at a struct field (e.dirty[p].Add(...)): those
//     sets are controller bookkeeping the sanitizer snapshots. Purely
//     local sets (work := &intervals.Set{}; work.Add(...)) are scratch
//     state and exempt.
//
// Packages with no `rolosan:audited` helper are out of scope (the
// discipline does not apply), as are _test.go files (tests corrupt state
// on purpose to prove the sanitizer notices). A local alias of a field
// set (s := &e.dirty[p]; s.Add(...)) escapes the receiver-root analysis;
// the convention is not to create such aliases in controller code.
package invariantguard

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/rolo-storage/rolo/internal/analysis"
)

// Analyzer is the invariantguard check.
var Analyzer = &analysis.Analyzer{
	Name: "invariantguard",
	Doc:  "flag log-space and dirty-set mutations outside rolosan:audited helpers",
	Run:  run,
}

// Marker is the doc-comment marker identifying an audited helper.
const Marker = "rolosan:audited"

var spaceMutators = map[string]bool{
	"Alloc": true, "ReleaseTag": true, "Reset": true,
}

var setMutators = map[string]bool{
	"Add": true, "Remove": true, "Clear": true,
}

func run(pass *analysis.Pass) error {
	audited := map[*types.Func]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			if !hasMarker(fd.Doc) {
				continue
			}
			if obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func); obj != nil {
				audited[obj] = true
			}
		}
	}
	if len(audited) == 0 {
		return nil // discipline not in force in this package
	}

	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func); obj != nil && audited[obj] {
				continue
			}
			checkBody(pass, fd.Body)
		}
	}
	return nil
}

func hasMarker(doc *ast.CommentGroup) bool {
	for _, c := range doc.List {
		line := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if line == Marker || strings.HasPrefix(line, Marker+" ") {
			return true
		}
	}
	return false
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := sig.Recv().Type()
		switch {
		case spaceMutators[fn.Name()] && analysis.IsNamed(recv, "internal/logspace", "Space"):
			pass.Reportf(call.Pos(), "unaudited",
				"logspace.Space.%s outside an audited helper: the sanitizer ledger cannot see this mutation; route it through a rolosan:audited helper",
				fn.Name())
		case setMutators[fn.Name()] && analysis.IsNamed(recv, "internal/intervals", "Set") &&
			fieldRooted(pass.TypesInfo, sel.X):
			pass.Reportf(call.Pos(), "unaudited",
				"%s.%s mutates shared dirty-set bookkeeping outside an audited helper; route it through a rolosan:audited helper",
				types.ExprString(ast.Unparen(sel.X)), fn.Name())
		}
		return true
	})
}

// fieldRooted reports whether the receiver expression reaches through a
// struct field — shared controller state — rather than a purely local
// variable. Unrecognized shapes count as field-rooted (conservative).
func fieldRooted(info *types.Info, expr ast.Expr) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return false
		case *ast.SelectorExpr:
			if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
				return true
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.UnaryExpr:
			expr = e.X
		default:
			return true
		}
	}
}
