package raceguard

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"github.com/rolo-storage/rolo/internal/analysis"
	"github.com/rolo-storage/rolo/internal/analysis/callgraph"
	"github.com/rolo-storage/rolo/internal/analysis/cfg"
)

// LockContract is the interprocedural side of the lock-discipline family:
// it exports per-function lock summaries as facts, enforces declared
// `//rolosan:requires mu` contracts at every static call site, and flags
// methods that touch guarded fields under a contract they never declared.
var LockContract = &analysis.Analyzer{
	Name: "lockcontract",
	Doc: "check //rolosan:requires lock contracts at call sites and flag undeclared ones\n\n" +
		"A function declared `//rolosan:requires mu` is analyzed with mu held\n" +
		"and every caller must hold mu (or a helper summarized as acquiring\n" +
		"it) at the call site. A method that accesses a `//rolosan:guardedby`\n" +
		"field without any lock operation of its own is flagged once, with a\n" +
		"fix inserting the missing directive.",
	Run: runLockContract,
}

func runLockContract(pass *analysis.Pass) error {
	sm := computeSummaries(pass)
	for fn, s := range sm.local {
		if !s.empty() {
			pass.ExportFact(lockNS, fn, s)
		}
	}
	guards := collectGuards(pass, false)
	for _, node := range sm.graph.All() {
		checkContracts(pass, sm, guards, node)
	}
	return nil
}

// checkContracts runs the three lockcontract checks over one declared
// function: directive validation, call-site contract enforcement, and
// undeclared-requires inference.
func checkContracts(pass *analysis.Pass, sm *summaries, guards map[types.Object]guard, node *callgraph.Node) {
	decl := node.Decl
	recvName, recvObj := receiver(pass.TypesInfo, decl)
	requires := declaredRequires(decl, recvName)
	validateRequires(pass, decl, requires)

	// Demands: call sites whose static callee declares a required chain,
	// grouped by the chain's caller-local rendering. Calls inside nested
	// literals and defers run at another time and are not checked here.
	demands := map[string][]*ast.CallExpr{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			callee := callgraph.StaticCallee(pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			if s := sm.forFunc(callee); s != nil {
				for _, r := range s.Requires {
					if text, _, ok := siteChain(pass.TypesInfo, r, n); ok {
						demands[text] = append(demands[text], n)
					}
				}
			}
		}
		return true
	})

	if len(demands) > 0 {
		g := cfg.Build(decl.Body)
		if !g.Unanalyzable {
			chains := make([]string, 0, len(demands))
			for c := range demands {
				chains = append(chains, c)
			}
			sort.Strings(chains)
			for _, chain := range chains {
				entry := entrySet(requires, recvName, chain)
				states := sm.states(g, chain, entry)
				for _, blk := range g.Blocks {
					st, reached := states[blk]
					if !reached {
						continue
					}
					for _, s := range blk.Stmts {
						for _, call := range demands[chain] {
							if stmtContains(s, call) && st.Has(stUnheld) {
								callee := callgraph.StaticCallee(pass.TypesInfo, call)
								pass.Reportf(call.Pos(), "requires-unheld",
									"call to %s requires %s held, but it may not be held here",
									callee.Name(), chain)
							}
						}
						st = sm.transfer(chain, s, st)
					}
				}
			}
		}
	}

	inferRequires(pass, sm, guards, decl, recvName, recvObj, requires)
}

// inferRequires flags receiver-rooted guarded-field accesses in methods
// that neither lock the chain themselves (directly or through helpers) nor
// declare the contract, naming the directive to add. One report per
// chain: the finding is about the method's missing contract, not about
// each access.
func inferRequires(pass *analysis.Pass, sm *summaries, guards map[types.Object]guard,
	decl *ast.FuncDecl, recvName string, recvObj types.Object, requires []string) {
	if recvObj == nil || len(guards) == 0 {
		return
	}
	reported := map[string]bool{}
	for _, a := range collectAccesses(pass, guards, decl.Body) {
		if a.root != recvObj || reported[a.chain] {
			continue
		}
		if entrySet(requires, recvName, a.chain) != cfg.Only(stUnheld) {
			continue // declared; the body is analyzed with the lock held
		}
		if sm.touchesChain(decl.Body, a.chain) {
			continue // locks locally on some path: guardedby's domain
		}
		reported[a.chain] = true
		operand := strings.TrimPrefix(a.chain, recvName+".")
		pass.Reportf(a.sel.Pos(), "undeclared-requires",
			"%s accesses %s (guarded by %s) without locking; declare //%s %s if callers must hold the lock",
			decl.Name.Name, fieldDisp(a.sel), a.chain, requiresDirective, operand)
	}
}

// validateRequires checks that each declared chain names something the
// analysis can hold: a mutex field of the receiver for $recv-relative
// single-segment chains. Deeper paths and package-level chains are taken
// on faith (they still participate textually).
func validateRequires(pass *analysis.Pass, decl *ast.FuncDecl, requires []string) {
	if len(requires) == 0 {
		return
	}
	for _, r := range requires {
		field, ok := strings.CutPrefix(r, recvMarker+".")
		if !ok || strings.Contains(field, ".") {
			continue
		}
		if !receiverHasMutexField(pass, decl, field) {
			pass.Reportf(decl.Pos(), "bad-annotation",
				"%s names %q, which is not a sync.Mutex or sync.RWMutex field of the receiver",
				requiresDirective, field)
		}
	}
}

// receiverHasMutexField reports whether the method's receiver struct has a
// mutex field with the given name.
func receiverHasMutexField(pass *analysis.Pass, decl *ast.FuncDecl, field string) bool {
	fn, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != field {
			continue
		}
		m, _ := isMutex(f.Type())
		return m
	}
	return false
}
