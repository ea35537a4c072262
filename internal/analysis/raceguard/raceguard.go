// Package raceguard is rololint's mutex-discipline analyzer family: two
// CFG-powered checks over the three concurrent harness components (the
// journal AsyncSink, the experiments pool and the fleet runner), so the
// locking discipline is enforced at every build rather than discovered
// under `go test -race` (which only sees the schedules the test happens
// to run).
//
//   - guardedby: struct fields annotated `//rolosan:guardedby <mu>` may
//     only be read or written on paths where the named sibling mutex is
//     held. Lock state is tracked by a forward dataflow over the
//     function's CFG (Lock/RLock/Unlock/RUnlock, with deferred unlocks
//     treated as end-of-function). `//lint:allow guardedby:unheld
//     <reason>` covers init-before-share construction.
//
//   - lockcontract: functions declared `//rolosan:requires <mu>` must be
//     called with the lock held, and a function that touches guarded
//     state without locking must declare the contract. Per-function lock
//     summaries (acquires, releases, requires) are folded bottom-up over
//     the call graph and exported as facts, so helpers that lock or
//     unlock count at their call sites across packages.
//
// Like the rest of the suite the analyses over-approximate: unrecognized
// control flow assumes the full value set and errs toward reporting,
// with the mandatory-reason escape hatch for intentional exceptions. Lock
// identity is textual — the rendered receiver chain (`m.mu`,
// `p.inner.mu`) scoped to one function — which is exactly the
// per-instance discipline the harness uses.
package raceguard

import (
	"go/ast"
	"go/types"

	"github.com/rolo-storage/rolo/internal/analysis"
)

// isMutex reports whether t (after one pointer indirection) is
// sync.Mutex or sync.RWMutex, and which.
func isMutex(t types.Type) (mutex, rw bool) {
	if analysis.IsNamed(t, "sync", "Mutex") {
		return true, false
	}
	if analysis.IsNamed(t, "sync", "RWMutex") {
		return true, true
	}
	return false, false
}

// lockMethod classifies a statically-resolved call as a lock-state
// operation on a sync.Mutex or sync.RWMutex receiver, returning the
// rendered receiver chain ("m.mu") and the method name.
func lockMethod(info *types.Info, call *ast.CallExpr) (chain, method string, ok bool) {
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK {
		return "", "", false
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", false
	}
	if m, _ := isMutex(sig.Recv().Type()); !m {
		return "", "", false
	}
	return types.ExprString(ast.Unparen(sel.X)), fn.Name(), true
}

// Lock-state universe shared by the analyzers: a forward may-analysis
// over the lattice {unheld, rlocked, locked}. The meet is union, so a
// state set containing unheld means "some path reaches here without the
// lock".
const (
	stUnheld = iota
	stRLocked
	stLocked
	stCount
)

// stmtContains reports whether the AST node lies within stmt, excluding
// nested function literal bodies (which belong to another analysis).
func stmtContains(s ast.Stmt, target ast.Node) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if n == target {
			found = true
			return false
		}
		return true
	})
	return found
}

// funcBodiesDecl yields every function body in the file — declarations
// and function literals — with the enclosing declaration: non-nil for
// declared functions and methods (whose doc may carry lock contracts), nil
// for function literals. Literal bodies are visited separately from their
// enclosing functions because they run at another time: lock state never
// flows into them.
func funcBodiesDecl(file *ast.File, fn func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n, n.Body)
			}
		case *ast.FuncLit:
			fn(nil, n.Body)
		}
		return true
	})
}
