// Package telemetryguard enforces PR 1's zero-overhead-when-disabled
// guarantee: every call to a *telemetry.Recorder emission method must be
// nil-guarded at the call site.
//
// The Recorder helpers are themselves nil-safe, but an unguarded call
// still evaluates its arguments and pays the call on the simulation hot
// path even when telemetry is disabled. The sanctioned shapes are:
//
//	if c.tel != nil {
//	        c.tel.RequestDone(now, isWrite, size, rt)
//	}
//
// an equivalent Enabled() guard:
//
//	if p.rec.Enabled() { p.rec.Emit(...) }
//
// or an early return earlier in the same block:
//
//	if c.tel == nil {
//	        return
//	}
//	...
//	c.tel.CacheHit(...)
//
// Enabled() itself is exempt (it is the guard). _test.go files are
// exempt: tests exercise the nil-safety deliberately.
package telemetryguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/rolo-storage/rolo/internal/analysis"
)

// Analyzer is the telemetryguard check.
var Analyzer = &analysis.Analyzer{
	Name: "telemetryguard",
	Doc:  "require nil guards around telemetry.Recorder emission calls",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		analysis.WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Name() == "Enabled" {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			if !analysis.IsNamed(sig.Recv().Type(), "internal/telemetry", "Recorder") {
				return true
			}
			recv := types.ExprString(ast.Unparen(sel.X))
			if !guarded(pass, recv, call, stack) {
				pass.Reportf(call.Pos(), "unguarded",
					"unguarded telemetry emission %s.%s; wrap in `if %s != nil { ... }` to keep the disabled path free",
					recv, fn.Name(), recv)
			}
			return true
		})
	}
	return nil
}

// guarded reports whether the call site is dominated by a nil check of
// recv: an enclosing `if recv != nil` / `if recv.Enabled()` (call in the
// then-branch), an enclosing `if recv == nil` with the call in the else
// branch, or a preceding `if recv == nil { ... return/continue/... }`
// statement in an enclosing block.
func guarded(pass *analysis.Pass, recv string, call *ast.CallExpr, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			inBody := i+1 < len(stack) && stack[i+1] == n.Body
			inElse := n.Else != nil && i+1 < len(stack) && stack[i+1] == n.Else
			if inBody && condAsserts(n.Cond, recv, true) {
				return true
			}
			if inElse && condAsserts(n.Cond, recv, false) {
				return true
			}
		case *ast.BlockStmt:
			// Find the child statement of this block we came through and
			// look for an earlier early-return nil check.
			var pos token.Pos
			if i+1 < len(stack) {
				pos = stack[i+1].Pos()
			} else {
				pos = call.Pos()
			}
			for _, stmt := range n.List {
				if stmt.Pos() >= pos {
					break
				}
				ifs, ok := stmt.(*ast.IfStmt)
				if !ok || ifs.Else != nil || !condAsserts(ifs.Cond, recv, false) {
					continue
				}
				if divertsControl(ifs.Body) {
					return true
				}
			}
		}
		// Note: scanning continues across FuncLit boundaries on purpose.
		// A recorder field is wired once before the run starts, so a
		// closure scheduled under `if c.tel != nil` still holds a non-nil
		// recorder when it fires later.
	}
	return false
}

// condAsserts reports whether cond guarantees recv is non-nil (want =
// true) or nil (want = false) when it evaluates true. Conjunctions are
// searched for want=true (e.g. `a != nil && b`), disjunctions for
// want=false.
func condAsserts(cond ast.Expr, recv string, want bool) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch c.Op {
		case token.NEQ, token.EQL:
			wantOp := token.EQL
			if want {
				wantOp = token.NEQ
			}
			if c.Op != wantOp {
				return false
			}
			x, y := ast.Unparen(c.X), ast.Unparen(c.Y)
			return (isNilIdent(y) && types.ExprString(x) == recv) ||
				(isNilIdent(x) && types.ExprString(y) == recv)
		case token.LAND:
			if want {
				return condAsserts(c.X, recv, true) || condAsserts(c.Y, recv, true)
			}
		case token.LOR:
			if !want {
				return condAsserts(c.X, recv, false) || condAsserts(c.Y, recv, false)
			}
		}
	case *ast.CallExpr:
		// recv.Enabled() implies recv != nil.
		if !want {
			return false
		}
		if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "Enabled" && types.ExprString(ast.Unparen(sel.X)) == recv
		}
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// divertsControl reports whether the block always leaves the surrounding
// statement list (return, continue, break, goto, panic).
func divertsControl(block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	switch last := block.List[len(block.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}
