// Package errpropagation flags dropped error returns.
//
// A call whose result set includes an error, used as a bare statement
// (including `defer` and `go`), silently discards the error. In
// simulation code a swallowed error usually means a silently wrong
// result, which is worse than a crash. Errors must be handled, returned,
// or explicitly discarded with `_ =` (visible in review) or a
// `//lint:allow errpropagation:dropped <reason>` directive.
//
// Scope: packages with an "internal" or "cmd" path segment, excluding
// _test.go files.
//
// Exemptions, to keep the signal high:
//
//   - fmt.Print/Printf/Println/Fprint/Fprintf/Fprintln: terminal/report
//     output where failure is untreatable;
//   - methods of strings.Builder and bytes.Buffer, which are documented
//     never to return a non-nil error;
//   - Write/WriteString/WriteByte/WriteRune on bufio.Writer, whose write
//     errors are sticky and surface from Flush (Flush itself is checked);
//   - niladic Close and Flush on resource types (per resourcelifecycle's
//     Detector): the resourcelifecycle analyzer owns those as its
//     dropped-error category — one finding per site, not two. Close/Flush on non-resource types (such as
//     bufio.Writer) stays with this analyzer.
//
// Goroutine bodies get one extra rule: assigning an error to a variable
// captured from the spawning function (`go func() { err = f() }()`) drops
// it just as surely as a bare call — the spawner cannot observe the write
// without synchronization, and by the time it could, a second goroutine
// may have overwritten it. Deliver goroutine errors over a channel or
// into a distinct index of a caller-owned slice instead.
package errpropagation

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/rolo-storage/rolo/internal/analysis"
	"github.com/rolo-storage/rolo/internal/analysis/resourcelifecycle"
)

// Analyzer is the errpropagation check.
var Analyzer = &analysis.Analyzer{
	Name: "errpropagation",
	Doc:  "flag calls that silently drop error returns",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !analysis.HasPathSegment(path, "internal") && !analysis.HasPathSegment(path, "cmd") {
		return nil
	}
	det := resourcelifecycle.NewDetector(pass)
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			var how string
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
				how = "call"
			case *ast.DeferStmt:
				call = n.Call
				how = "deferred call"
			case *ast.GoStmt:
				call = n.Call
				how = "go call"
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					checkGoroutineErrs(pass, lit)
				}
			default:
				return true
			}
			if call == nil || !returnsError(pass.TypesInfo, call) || exempt(pass.TypesInfo, call, det) {
				return true
			}
			pass.Reportf(call.Pos(), "dropped", "%s to %s drops its error; handle it, return it, or discard explicitly with `_ =`",
				how, calleeName(pass.TypesInfo, call))
			return true
		})
	}
	return nil
}

// checkGoroutineErrs flags assignments, inside a goroutine literal, to
// error-typed variables declared outside it. Such a write reaches the
// spawner only through separate synchronization and is overwritten by
// whichever goroutine assigns last — the concurrent flavour of a dropped
// error.
func checkGoroutineErrs(pass *analysis.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok == token.DEFINE {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok || v.IsField() || !isErrorType(v.Type()) {
				continue
			}
			if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
				continue // the goroutine's own local
			}
			pass.Reportf(id.Pos(), "captured-err",
				"goroutine assigns error to captured variable %s, invisible to the spawner; deliver it over a channel or an indexed slice", id.Name)
		}
		return true
	})
}

// returnsError reports whether the call's results include an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// printfFuncs is the fmt output family exempted from the check.
var printfFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// exempt recognizes calls whose dropped error is either impossible,
// surfaced elsewhere, or owned by a more specific analyzer.
func exempt(info *types.Info, call *ast.CallExpr, det *resourcelifecycle.Detector) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && printfFuncs[fn.Name()]
	}
	recv := sig.Recv().Type()
	switch {
	case analysis.IsNamed(recv, "strings", "Builder"),
		analysis.IsNamed(recv, "bytes", "Buffer"):
		return true
	case analysis.IsNamed(recv, "bufio", "Writer"):
		return strings.HasPrefix(fn.Name(), "Write")
	}
	// Dropped Close/Flush errors on resource values are
	// resourcelifecycle's dropped-error category.
	if (fn.Name() == "Close" || fn.Name() == "Flush") && sig.Params().Len() == 0 {
		return det.IsResource(recv)
	}
	return false
}

func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := analysis.CalleeFunc(info, call); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			short := func(p *types.Package) string { return p.Name() }
			return "(" + types.TypeString(sig.Recv().Type(), short) + ")." + fn.Name()
		}
		if fn.Pkg() != nil {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return types.ExprString(call.Fun)
}
