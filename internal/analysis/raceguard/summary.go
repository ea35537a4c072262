package raceguard

// This file is the interprocedural half of the lock-discipline family: a
// per-function LockSummary computed bottom-up over the package's call
// graph and exported as a fact in the "lockcontract" namespace, so that
// guardedby and lockcontract see through helper calls — `s.lockAll()`
// counts as acquiring `s.mu`, and a call to a method declared
// `//rolosan:requires mu` demands the lock at every call site, in this
// package and in every importer.
//
// Summary chains are receiver-relative: the receiver segment of a rendered
// mutex chain is replaced by the marker "$recv" ("$recv.mu"), and call
// sites translate the marker back through the callee's receiver expression
// ("w.seg.lock()" turns "$recv.mu" into "w.seg.mu"). Chains rooted at
// locals or parameters are not summarizable and stay function-private;
// chains rooted at package-level variables keep their rendered text, which
// matches textually within the declaring package only — a deliberate,
// sound under-approximation (cross-package callers simply get no summary
// effect).

import (
	"go/ast"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"github.com/rolo-storage/rolo/internal/analysis"
	"github.com/rolo-storage/rolo/internal/analysis/callgraph"
	"github.com/rolo-storage/rolo/internal/analysis/cfg"
)

// lockNS is the fact namespace shared by guardedby and lockcontract.
const lockNS = "lockcontract"

// requiresDirective declares a function's lock contract:
// `//rolosan:requires mu` on the doc comment means every caller must hold
// the named mutex (a field of the receiver, or a package-level chain).
const requiresDirective = "rolosan:requires"

// recvMarker stands for the receiver in summary chains.
const recvMarker = "$recv"

// A LockSummary is the per-function fact of the lockcontract namespace.
type LockSummary struct {
	// Requires lists chains the caller must hold when calling (declared
	// via //rolosan:requires; never inferred, so one missing annotation
	// cannot cascade into reports at every transitive caller).
	Requires []string `json:"requires,omitempty"`
	// Acquires lists chains unheld at entry and held at every non-panic
	// exit — lock-helper methods.
	Acquires []string `json:"acquires,omitempty"`
	// Releases lists chains the function unlocks: held at entry, unheld
	// at every exit, with no Lock of its own.
	Releases []string `json:"releases,omitempty"`
}

func (s *LockSummary) empty() bool {
	return s == nil || (len(s.Requires) == 0 && len(s.Acquires) == 0 && len(s.Releases) == 0)
}

// summaries resolves LockSummary facts: locally computed ones for this
// package's functions, imported ones for dependencies.
type summaries struct {
	pass  *analysis.Pass
	graph *callgraph.Graph
	local map[*types.Func]*LockSummary
}

// forFunc returns fn's summary, or nil if none is known.
func (sm *summaries) forFunc(fn *types.Func) *LockSummary {
	if s, ok := sm.local[fn]; ok {
		return s
	}
	var s LockSummary
	if sm.pass.ImportFact(lockNS, fn, &s) && !s.empty() {
		sm.local[fn] = &s
		return &s
	}
	sm.local[fn] = nil
	return nil
}

// computeSummaries builds the package call graph and computes every
// function's LockSummary bottom-up. Both guardedby and lockcontract call
// it (each works alone, e.g. under analysistest); only lockcontract
// exports the results as facts.
func computeSummaries(pass *analysis.Pass) *summaries {
	sm := &summaries{
		pass:  pass,
		graph: callgraph.Build(pass.Files, pass.TypesInfo),
		local: make(map[*types.Func]*LockSummary),
	}
	for _, comp := range sm.graph.SCCs() {
		// Iterate mutually recursive components to a fixpoint; the lattice
		// per function is tiny, so this converges in a couple of rounds.
		for range len(comp) + 1 {
			changed := false
			for _, node := range comp {
				next := sm.summarize(node)
				if !reflect.DeepEqual(sm.local[node.Func], next) {
					sm.local[node.Func] = next
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return sm
}

// summarize computes one function's summary from its body and the current
// summaries of its callees.
func (sm *summaries) summarize(node *callgraph.Node) *LockSummary {
	decl := node.Decl
	recvName, recvObj := receiver(sm.pass.TypesInfo, decl)
	out := &LockSummary{Requires: declaredRequires(decl, recvName)}

	g := cfg.Build(decl.Body)
	for _, ci := range sm.candidateChains(decl.Body) {
		exported := summaryChain(ci, recvName, recvObj)
		if exported == "" || g.Unanalyzable {
			continue
		}
		acquireExit := sm.exitSet(g, ci.text, cfg.Only(stUnheld))
		releaseExit := sm.exitSet(g, ci.text, cfg.Only(stLocked))
		ops := directOps(sm.pass.TypesInfo, decl.Body, ci.text)
		switch {
		case acquireExit == cfg.Only(stLocked) && !ops.deferredUnlock:
			out.Acquires = append(out.Acquires, exported)
		case releaseExit == cfg.Only(stUnheld) && acquireExit == cfg.Only(stUnheld) &&
			ops.unlock && !ops.lock:
			out.Releases = append(out.Releases, exported)
		}
	}
	sort.Strings(out.Acquires)
	sort.Strings(out.Releases)
	if out.empty() {
		return nil
	}
	return out
}

// A chainInfo is a mutex chain as rendered inside one function, plus the
// object its base identifier resolves to.
type chainInfo struct {
	text string
	root types.Object
}

// candidateChains collects the distinct mutex chains the body operates on,
// directly or through summarized callees.
func (sm *summaries) candidateChains(body *ast.BlockStmt) []chainInfo {
	seen := map[string]chainInfo{}
	add := func(text string, root types.Object) {
		if _, ok := seen[text]; !ok {
			seen[text] = chainInfo{text: text, root: root}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if chain, _, ok := lockMethod(sm.pass.TypesInfo, n); ok {
				sel := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				add(chain, rootObject(sm.pass.TypesInfo, sel.X))
				return true
			}
			callee := callgraph.StaticCallee(sm.pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			if s := sm.forFunc(callee); s != nil {
				for _, c := range append(append([]string(nil), s.Acquires...), s.Releases...) {
					if text, root, ok := siteChain(sm.pass.TypesInfo, c, n); ok {
						add(text, root)
					}
				}
			}
		}
		return true
	})
	out := make([]chainInfo, 0, len(seen))
	for _, ci := range seen {
		out = append(out, ci)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].text < out[j].text })
	return out
}

// transfer folds one statement over the lock-state set for chain,
// interpreting both direct Lock/Unlock calls and calls to functions whose
// summaries acquire or release the chain. Nested literals are skipped:
// their bodies execute at another time, under their own analysis.
// Deferred unlocks run at function exit and leave the path state alone;
// deferred locks are nonsensical and ignored.
func (sm *summaries) transfer(chain string, s ast.Stmt, in cfg.Set) cfg.Set {
	out := in
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if c, method, ok := lockMethod(sm.pass.TypesInfo, n); ok {
				if c != chain {
					return true
				}
				switch method {
				case "Lock":
					out = cfg.Only(stLocked)
				case "RLock":
					out = cfg.Only(stRLocked)
				case "Unlock", "RUnlock":
					out = cfg.Only(stUnheld)
				}
				return true
			}
			callee := callgraph.StaticCallee(sm.pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			sum := sm.forFunc(callee)
			if sum == nil {
				return true
			}
			for _, c := range sum.Acquires {
				if text, _, ok := siteChain(sm.pass.TypesInfo, c, n); ok && text == chain {
					out = cfg.Only(stLocked)
				}
			}
			for _, c := range sum.Releases {
				if text, _, ok := siteChain(sm.pass.TypesInfo, c, n); ok && text == chain {
					out = cfg.Only(stUnheld)
				}
			}
		}
		return true
	})
	return out
}

// states solves the summary-aware lock-state analysis for one chain.
func (sm *summaries) states(g *cfg.Graph, chain string, entry cfg.Set) map[*cfg.Block]cfg.Set {
	return g.Solve(entry, func(s ast.Stmt, in cfg.Set) cfg.Set {
		return sm.transfer(chain, s, in)
	}, nil)
}

// exitSet returns the union of the lock states at every reachable function
// exit (end of a successor-less block), ignoring panic exits.
func (sm *summaries) exitSet(g *cfg.Graph, chain string, entry cfg.Set) cfg.Set {
	in := sm.states(g, chain, entry)
	var exit cfg.Set
	for _, blk := range g.Blocks {
		st, reached := in[blk]
		if !reached || len(blk.Succs) > 0 {
			continue
		}
		panics := false
		for _, s := range blk.Stmts {
			st = sm.transfer(chain, s, st)
			panics = cfg.IsPanicStmt(s)
		}
		if !panics {
			exit = exit.Union(st)
		}
	}
	return exit
}

// opsInfo summarizes the direct lock operations a body performs on one
// chain.
type opsInfo struct {
	lock, unlock   bool // any Lock/RLock, any Unlock/RUnlock outside defer
	deferredUnlock bool
	any            bool // any direct op or summarized helper effect
}

// directOps scans the body (excluding nested literals) for lock operations
// on chain.
func directOps(info *types.Info, body *ast.BlockStmt, chain string) opsInfo {
	var ops opsInfo
	var walk func(n ast.Node, inDefer bool)
	walk = func(root ast.Node, inDefer bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				if !inDefer {
					walk(n.Call, true)
				}
				return false
			case *ast.CallExpr:
				c, method, ok := lockMethod(info, n)
				if !ok || c != chain {
					return true
				}
				ops.any = true
				switch method {
				case "Lock", "RLock":
					if !inDefer {
						ops.lock = true
					}
				case "Unlock", "RUnlock":
					if inDefer {
						ops.deferredUnlock = true
					} else {
						ops.unlock = true
					}
				}
			}
			return true
		})
	}
	walk(body, false)
	return ops
}

// touchesChain reports whether the body has any lock effect on chain —
// a direct operation or a call to a helper whose summary acquires or
// releases it. When false, the chain's state cannot change inside the
// function: an access under that chain is a pure delegated contract, which
// lockcontract (not guardedby) reports, once, with a directive fix.
func (sm *summaries) touchesChain(body *ast.BlockStmt, chain string) bool {
	if directOps(sm.pass.TypesInfo, body, chain).any {
		return true
	}
	for _, ci := range sm.candidateChains(body) {
		if ci.text == chain {
			return true
		}
	}
	return false
}

// receiver returns the receiver name and object of a method declaration
// ("" and nil for functions and unnamed receivers).
func receiver(info *types.Info, decl *ast.FuncDecl) (string, types.Object) {
	if decl == nil || decl.Recv == nil || len(decl.Recv.List) == 0 {
		return "", nil
	}
	names := decl.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return "", nil
	}
	return names[0].Name, info.Defs[names[0]]
}

// rootObject resolves the base identifier of a selector chain.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// summaryChain renders a function-local chain in exportable form:
// "$recv.mu" for receiver-rooted chains, the text itself for chains rooted
// at package-level variables, "" for locals and parameters.
func summaryChain(ci chainInfo, recvName string, recvObj types.Object) string {
	if recvObj != nil && ci.root == recvObj {
		if ci.text == recvName {
			return recvMarker
		}
		if rest, ok := strings.CutPrefix(ci.text, recvName+"."); ok {
			return recvMarker + "." + rest
		}
		return ""
	}
	if v, ok := ci.root.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return ci.text
	}
	return ""
}

// siteChain translates a summary chain to the caller's rendering at one
// call site: "$recv.mu" through the callee's receiver expression,
// package-level chains verbatim.
func siteChain(info *types.Info, chain string, call *ast.CallExpr) (text string, root types.Object, ok bool) {
	rest, hasRecv := strings.CutPrefix(chain, recvMarker)
	if !hasRecv {
		return chain, nil, true
	}
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK {
		return "", nil, false // method value/expression call; no receiver text
	}
	recv := ast.Unparen(sel.X)
	return types.ExprString(recv) + rest, rootObject(info, recv), true
}

// localChain renders a summary chain as seen inside the summarized
// function itself, substituting the receiver name for the marker.
func localChain(chain, recvName string) string {
	if recvName == "" {
		return chain
	}
	if chain == recvMarker {
		return recvName
	}
	if rest, ok := strings.CutPrefix(chain, recvMarker+"."); ok {
		return recvName + "." + rest
	}
	return chain
}

// declaredRequires parses the //rolosan:requires directives of a function
// declaration into summary-form chains.
func declaredRequires(decl *ast.FuncDecl, recvName string) []string {
	if decl == nil || decl.Doc == nil {
		return nil
	}
	var out []string
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		rest, ok := strings.CutPrefix(text, requiresDirective)
		if !ok {
			continue
		}
		for _, name := range strings.Fields(rest) {
			name = strings.TrimSuffix(name, ",")
			if name == "" {
				continue
			}
			out = append(out, normalizeRequired(name, recvName))
		}
	}
	sort.Strings(out)
	return out
}

// normalizeRequired turns a directive operand into summary form: a bare
// field name or a receiver-rooted chain becomes $recv-relative; anything
// else (package-level chains) is kept verbatim.
func normalizeRequired(name, recvName string) string {
	if recvName != "" {
		if name == recvName {
			return recvMarker
		}
		if rest, ok := strings.CutPrefix(name, recvName+"."); ok {
			return recvMarker + "." + rest
		}
	}
	if !strings.Contains(name, ".") && recvName != "" {
		return recvMarker + "." + name
	}
	return name
}

// entrySet returns the lock-state entry set for one chain in a function
// whose declared requires are given in summary form: required chains start
// locked, everything else unheld.
func entrySet(requires []string, recvName, chain string) cfg.Set {
	for _, r := range requires {
		if localChain(r, recvName) == chain {
			return cfg.Only(stLocked)
		}
	}
	return cfg.Only(stUnheld)
}
