package liveness

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"

	"github.com/rolo-storage/rolo/internal/analysis"
	"github.com/rolo-storage/rolo/internal/analysis/callgraph"
	"github.com/rolo-storage/rolo/internal/analysis/cfg"
	"github.com/rolo-storage/rolo/internal/analysis/raceguard"
)

const chanNS = "chanmisuse"

// A ChanSummary is the "chanmisuse" fact of one function: whether calling
// it may block on channel traffic (so callers must not hold a mutex
// across the call), which channel-typed parameters it eventually closes
// (directly, in a spawned goroutine, or through a callee), and which
// channel fields — by canonical "(pkg.Type).field" ID — it closes.
type ChanSummary struct {
	Blocks       bool     `json:"blocks,omitempty"`
	ClosesParams []int    `json:"closesParams,omitempty"`
	ClosesIDs    []string `json:"closesIds,omitempty"`
}

// ChanMisuse reports channel operations that destroy liveness: blocking
// sends, receives, or WaitGroup waits inside a mutex critical section
// (directly or through a summarized callee), ranges over channels that
// nothing reachable ever closes, and sends on channels that never leave
// the sending goroutine.
var ChanMisuse = &analysis.Analyzer{
	Name: "chanmisuse",
	Doc: `report blocking channel operations under a held mutex and channels nobody finishes

A channel send, receive, or sync.WaitGroup.Wait that blocks while a mutex
is held stalls every other goroutine contending for that mutex — and
deadlocks outright if the unblocking party needs the same lock. The check
reuses the summary-aware lock-state dataflow, so helper-acquired locks and
callees that block (a "blocks" fact) are both seen. sync.Cond.Wait is
exempt: it releases the mutex while parked.

A range over a channel terminates only when the channel is closed, so a
range whose channel has no reachable close — in this function, in a
goroutine it spawns, in a callee whose summary closes the parameter, or
(for channel fields) anywhere in the owning package and its summarized
callees — loops forever once the senders go quiet. A send on an
unbuffered channel that never escapes the current goroutine can never be
received and blocks forever.`,
	Run: runChanMisuse,
}

type chanMisuse struct {
	pass      *analysis.Pass
	model     *raceguard.LockModel
	local     map[*types.Func]*ChanSummary
	imported  map[*types.Func]*ChanSummary
	missing   map[*types.Func]bool
	pkgCloses map[string]bool
}

func runChanMisuse(pass *analysis.Pass) error {
	cm := &chanMisuse{
		pass:      pass,
		model:     raceguard.NewLockModel(pass),
		local:     make(map[*types.Func]*ChanSummary),
		imported:  make(map[*types.Func]*ChanSummary),
		missing:   make(map[*types.Func]bool),
		pkgCloses: make(map[string]bool),
	}
	// Re-export the lock summaries so importers' chanmisuse runs see
	// helper-acquired locks even when lockcontract is not in the suite.
	cm.model.ExportFacts()
	for _, comp := range cm.model.Graph().SCCs() {
		for round := 0; round <= len(comp); round++ {
			changed := false
			for _, node := range comp {
				sum := cm.summarize(node)
				if !reflect.DeepEqual(cm.local[node.Func], sum) {
					changed = true
				}
				cm.local[node.Func] = sum
			}
			if !changed {
				break
			}
		}
	}
	for _, node := range cm.model.Graph().All() {
		s := cm.local[node.Func]
		if s != nil && (s.Blocks || len(s.ClosesParams) > 0 || len(s.ClosesIDs) > 0) {
			pass.ExportFact(chanNS, node.Func, s)
		}
	}
	// The package-wide close set backs the channel-field range check: a
	// field class is "closed" if any function in this package closes it,
	// directly or through a summarized callee.
	for _, node := range cm.model.Graph().All() {
		if s := cm.local[node.Func]; s != nil {
			for _, id := range s.ClosesIDs {
				cm.pkgCloses[id] = true
			}
		}
	}
	for _, f := range pass.Files {
		funcBodies(f, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
			cm.checkUnderLock(decl, body)
			cm.checkChannels(body)
		})
	}
	return nil
}

// summarize computes one function's ChanSummary. Blocking is judged over
// the code the call itself runs (literals, go statements, and defers
// excluded); closing is judged over everything the call sets in motion
// (literals and goroutines included), because "this channel will
// eventually be closed" is exactly as true for an async close.
func (cm *chanMisuse) summarize(node *callgraph.Node) *ChanSummary {
	info := cm.pass.TypesInfo
	sum := &ChanSummary{}

	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SelectStmt:
			if selectHasDefault(n) {
				return false
			}
			sum.Blocks = true
			return false
		case *ast.SendStmt:
			sum.Blocks = true
		case *ast.RangeStmt:
			if isChanType(info.TypeOf(n.X)) {
				sum.Blocks = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				sum.Blocks = true
			}
		case *ast.CallExpr:
			if isWaitGroupWait(info, n) {
				sum.Blocks = true
			} else if cm.calleeBlocks(n) {
				sum.Blocks = true
			}
		}
		return true
	})

	chanParams := make(map[types.Object]int)
	if fn := node.Func; fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				if p := sig.Params().At(i); isChanType(p.Type()) {
					chanParams[p] = i
				}
			}
		}
	}
	closedParams := make(map[int]bool)
	closedIDs := make(map[string]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltinClose(info, call) && len(call.Args) == 1 {
			arg := ast.Unparen(call.Args[0])
			if obj := identObj(info, arg); obj != nil {
				if i, ok := chanParams[obj]; ok {
					closedParams[i] = true
				}
			} else if sel, ok := arg.(*ast.SelectorExpr); ok {
				if id, ok := canonicalID(rootOf(info, sel), types.ExprString(sel)); ok {
					closedIDs[id] = true
				}
			}
			return true
		}
		callee := callgraph.StaticCallee(info, call)
		if callee == nil {
			return true
		}
		s := cm.forFunc(callee)
		if s == nil {
			return true
		}
		for _, id := range s.ClosesIDs {
			closedIDs[id] = true
		}
		for _, j := range s.ClosesParams {
			if j >= len(call.Args) {
				continue
			}
			if obj := identObj(info, call.Args[j]); obj != nil {
				if i, ok := chanParams[obj]; ok {
					closedParams[i] = true
				}
			}
		}
		return true
	})
	for i := range closedParams {
		sum.ClosesParams = append(sum.ClosesParams, i)
	}
	sort.Ints(sum.ClosesParams)
	for id := range closedIDs {
		sum.ClosesIDs = append(sum.ClosesIDs, id)
	}
	sort.Strings(sum.ClosesIDs)
	return sum
}

// calleeBlocks reports whether call's static callee carries a trusted
// Blocks summary. Blocks facts from outside the current import tree are
// ignored (see sameTree): close facts transfer fine across that line, but
// "blocks" inferred from the runtime's own scheduler channels does not.
func (cm *chanMisuse) calleeBlocks(call *ast.CallExpr) bool {
	callee := callgraph.StaticCallee(cm.pass.TypesInfo, call)
	if callee == nil || !sameTree(callee.Pkg(), cm.pass.Pkg) {
		return false
	}
	s := cm.forFunc(callee)
	return s != nil && s.Blocks
}

func (cm *chanMisuse) forFunc(fn *types.Func) *ChanSummary {
	if fn == nil {
		return nil
	}
	if cm.model.Graph().Nodes[fn] != nil {
		return cm.local[fn]
	}
	if s, ok := cm.imported[fn]; ok {
		return s
	}
	if cm.missing[fn] {
		return nil
	}
	var s ChanSummary
	if cm.pass.ImportFact(chanNS, fn, &s) {
		cm.imported[fn] = &s
		return &s
	}
	cm.missing[fn] = true
	return nil
}

// known reports whether fn's channel behavior is visible to the analysis:
// a package-local function always is, an imported one only if it exported
// a fact (no fact means no channel behavior worth recording — which for
// close-evidence purposes still counts as known-not-closing when the
// function is local or published any fact namespace... it did not, so
// treat silence from another package as known only when the function is
// local).
func (cm *chanMisuse) known(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if cm.model.Graph().Nodes[fn] != nil {
		return true
	}
	return cm.forFunc(fn) != nil
}

// checkUnderLock reports channel operations that may block while a mutex
// is held, using the summary-aware per-chain lock dataflow.
func (cm *chanMisuse) checkUnderLock(decl *ast.FuncDecl, body *ast.BlockStmt) {
	g := cfg.Build(body)
	if g.Unanalyzable {
		return
	}
	chains := cm.model.Chains(body)
	if decl != nil {
		for _, r := range cm.model.Requires(decl) {
			seen := false
			for _, c := range chains {
				if c.Text == r.Text {
					seen = true
					break
				}
			}
			if !seen {
				chains = append(chains, r)
			}
		}
	}
	if len(chains) == 0 {
		return
	}
	states := make(map[string]map[*cfg.Block]cfg.Set, len(chains))
	for _, c := range chains {
		states[c.Text] = cm.model.States(g, decl, c.Text)
	}
	for _, blk := range g.Blocks {
		if _, ok := states[chains[0].Text][blk]; !ok {
			continue
		}
		cur := make(map[string]cfg.Set, len(states))
		for text, sets := range states {
			cur[text] = sets[blk]
		}
		for _, s := range blk.Stmts {
			var held string
			for _, c := range chains {
				set := cur[c.Text]
				if set.Has(raceguard.StateLocked) || set.Has(raceguard.StateRLocked) {
					if held == "" || c.Text < held {
						held = c.Text
					}
				}
			}
			if held != "" {
				cm.reportBlocking(s, held)
			}
			for text := range cur {
				cur[text] = cm.model.Fold(text, s, cur[text])
			}
		}
	}
}

// reportBlocking scans one statement reached with mutex `held` held and
// reports each operation in it that may block on channel traffic.
func (cm *chanMisuse) reportBlocking(s ast.Stmt, held string) {
	info := cm.pass.TypesInfo
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SelectStmt:
			if selectHasDefault(n) {
				return false
			}
		case *ast.SendStmt:
			cm.pass.Reportf(n.Arrow, "send-under-lock",
				"channel send while %s is held blocks every other user of the mutex until a receiver is ready; move it outside the critical section", held)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				cm.pass.Reportf(n.OpPos, "recv-under-lock",
					"channel receive while %s is held blocks every other user of the mutex until a sender is ready; move it outside the critical section", held)
			}
		case *ast.CallExpr:
			if isWaitGroupWait(info, n) {
				cm.pass.Reportf(n.Pos(), "wait-under-lock",
					"sync.WaitGroup.Wait while %s is held stalls the mutex until every worker finishes — and deadlocks if a worker needs it; wait outside the critical section", held)
			} else if cm.calleeBlocks(n) {
				callee := callgraph.StaticCallee(info, n)
				cm.pass.Reportf(n.Pos(), "call-under-lock",
					"call to %s while %s is held may block on channel traffic with the mutex held; call it outside the critical section", callee.Name(), held)
			}
		}
		return true
	})
}

// checkChannels runs the per-body channel-lifecycle checks: ranges whose
// channel nothing closes, and sends no goroutine can ever receive.
func (cm *chanMisuse) checkChannels(body *ast.BlockStmt) {
	info := cm.pass.TypesInfo
	inspectShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if !isChanType(info.TypeOf(n.X)) {
				return
			}
			switch x := ast.Unparen(n.X).(type) {
			case *ast.Ident:
				cm.checkLocalRange(body, n, x)
			case *ast.SelectorExpr:
				if id, ok := canonicalID(rootOf(info, x), types.ExprString(x)); ok && !cm.pkgCloses[id] {
					cm.pass.Reportf(n.Pos(), "unclosed-range",
						"range over %s may never terminate: nothing in this package or its summarized callees closes it; close the channel when the senders are done (or waive with a reason if it is closed elsewhere)", displayID(id))
				}
			}
		case *ast.SendStmt:
			cm.checkSelfReceive(body, n)
		}
	})
}

// checkLocalRange reports a range over a locally-made channel with no
// reachable close. Channels that escape — returned, stored, captured by a
// value we cannot follow, or passed to a function without a summary — get
// the benefit of the doubt.
func (cm *chanMisuse) checkLocalRange(body *ast.BlockStmt, rs *ast.RangeStmt, x *ast.Ident) {
	info := cm.pass.TypesInfo
	obj := info.Uses[x]
	if obj == nil {
		return
	}
	u := cm.scanUses(body, obj)
	if u.defCall == nil || u.closed || u.escapes {
		return
	}
	d := analysis.Diagnostic{
		Pos:      rs.Pos(),
		Category: "unclosed-range",
		Message: "range over " + obj.Name() + " never terminates: no reachable code closes the channel, so the loop blocks forever once the senders go quiet; close(" +
			obj.Name() + ") when the last send is done",
	}
	if lit := u.soleGoSender(); lit != nil {
		d.SuggestedFixes = []analysis.SuggestedFix{{
			Message: "close " + obj.Name() + " when the sending goroutine finishes",
			Edits: []analysis.TextEdit{{
				Pos:     lit.Body.Lbrace + 1,
				End:     lit.Body.Lbrace + 1,
				NewText: "\n\tdefer close(" + obj.Name() + ")",
			}},
		}}
	}
	cm.pass.Report(d)
}

// checkSelfReceive reports a send that is guaranteed to block forever: an
// unbuffered channel that never escapes the goroutine performing the
// send, so no receiver can ever exist.
func (cm *chanMisuse) checkSelfReceive(body *ast.BlockStmt, send *ast.SendStmt) {
	info := cm.pass.TypesInfo
	obj := identObj(info, send.Chan)
	if obj == nil {
		return
	}
	u := cm.scanUses(body, obj)
	if u.defCall == nil || len(u.defCall.Args) != 1 {
		return
	}
	if u.escapes || u.capturedByLit || u.receives || u.selectSends {
		return
	}
	cm.pass.Reportf(send.Arrow, "self-receive",
		"send on %s always blocks: the unbuffered channel never leaves this goroutine, so no receiver can exist", obj.Name())
}

// chanUse is what scanUses learned about one channel variable within one
// function body.
type chanUse struct {
	defCall       *ast.CallExpr // the make(chan ...) defining it here, if any
	closed        bool
	escapes       bool
	receives      bool
	capturedByLit bool
	selectSends   bool           // some send sits inside a select (may have other ready cases)
	sendLits      []*ast.FuncLit // innermost literal of each plain send; nil entry = send in this body
	goLits        map[*ast.FuncLit]bool
}

// soleGoSender returns the single go-spawned function literal performing
// every send on the channel, or nil — the shape the mechanical
// `defer close` fix requires.
func (u *chanUse) soleGoSender() *ast.FuncLit {
	if len(u.sendLits) == 0 {
		return nil
	}
	first := u.sendLits[0]
	if first == nil || !u.goLits[first] {
		return nil
	}
	for _, lit := range u.sendLits[1:] {
		if lit != first {
			return nil
		}
	}
	return first
}

// scanUses classifies every use of obj in body: where it is defined, who
// closes it, whether it escapes analysis, and where the sends are.
func (cm *chanMisuse) scanUses(body *ast.BlockStmt, obj types.Object) *chanUse {
	info := cm.pass.TypesInfo
	u := &chanUse{goLits: make(map[*ast.FuncLit]bool)}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				u.goLits[lit] = true
			}
		}
		id, ok := n.(*ast.Ident)
		if !ok || (info.Uses[id] != obj && info.Defs[id] != obj) {
			return true
		}
		cm.classifyUse(u, stack, id)
		return true
	})
	return u
}

func (cm *chanMisuse) classifyUse(u *chanUse, stack []ast.Node, id *ast.Ident) {
	info := cm.pass.TypesInfo
	var inLit *ast.FuncLit
	inSelect := false
	for i := len(stack) - 2; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.FuncLit:
			if inLit == nil {
				inLit = anc
			}
		case *ast.SelectStmt:
			inSelect = true
		}
	}
	if inLit != nil {
		u.capturedByLit = true
	}
	parent := stack[len(stack)-2]
	switch p := parent.(type) {
	case *ast.SendStmt:
		if p.Chan == id {
			u.sendLits = append(u.sendLits, inLit)
			if inSelect {
				u.selectSends = true
			}
		} else {
			u.escapes = true
		}
	case *ast.UnaryExpr:
		if p.Op == token.ARROW {
			u.receives = true
		} else {
			u.escapes = true
		}
	case *ast.RangeStmt:
		if p.X != id {
			u.escapes = true
		} else {
			u.receives = true
		}
	case *ast.CallExpr:
		cm.classifyCallUse(u, p, id)
	case *ast.AssignStmt:
		onLeft := false
		for _, lhs := range p.Lhs {
			if lhs == id {
				onLeft = true
			}
		}
		if !onLeft {
			u.escapes = true
			return
		}
		if call := makeChanCall(info, p, id); call != nil && u.defCall == nil {
			u.defCall = call
		} else {
			// Reassigned, or assigned from something other than a fresh
			// make: aliasing we do not follow.
			u.escapes = true
		}
	case *ast.ValueSpec:
		if call := makeChanSpec(info, p, id); call != nil && u.defCall == nil {
			u.defCall = call
		} else {
			u.escapes = true
		}
	default:
		u.escapes = true
	}
}

// classifyCallUse handles obj appearing as a call argument: builtin
// close/len/cap are understood, a summarized callee that closes the
// parameter counts as a close, anything opaque is an escape.
func (cm *chanMisuse) classifyCallUse(u *chanUse, call *ast.CallExpr, id *ast.Ident) {
	info := cm.pass.TypesInfo
	argIndex := -1
	for i, a := range call.Args {
		if ast.Unparen(a) == id {
			argIndex = i
		}
	}
	if argIndex < 0 {
		u.escapes = true
		return
	}
	if isBuiltinClose(info, call) {
		u.closed = true
		return
	}
	if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			if name := b.Name(); name == "len" || name == "cap" {
				return
			}
			u.escapes = true
			return
		}
	}
	callee := callgraph.StaticCallee(info, call)
	if callee == nil || !cm.known(callee) {
		u.escapes = true
		return
	}
	if s := cm.forFunc(callee); s != nil {
		for _, j := range s.ClosesParams {
			if j == argIndex {
				u.closed = true
				return
			}
		}
	}
	// A summarized callee that does not close the parameter is evidence
	// the channel's lifecycle ends elsewhere — the range is on its own.
}

func makeChanCall(info *types.Info, assign *ast.AssignStmt, id *ast.Ident) *ast.CallExpr {
	if len(assign.Lhs) != len(assign.Rhs) {
		return nil
	}
	for i, lhs := range assign.Lhs {
		if lhs == id {
			return asMakeChan(info, assign.Rhs[i])
		}
	}
	return nil
}

func makeChanSpec(info *types.Info, spec *ast.ValueSpec, id *ast.Ident) *ast.CallExpr {
	if len(spec.Names) != len(spec.Values) {
		return nil
	}
	for i, name := range spec.Names {
		if name == id {
			return asMakeChan(info, spec.Values[i])
		}
	}
	return nil
}

func asMakeChan(info *types.Info, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := info.Uses[fun].(*types.Builtin); !ok || b.Name() != "make" {
		return nil
	}
	if !isChanType(info.TypeOf(call)) {
		return nil
	}
	return call
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isBuiltinClose(info *types.Info, call *ast.CallExpr) bool {
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[fun].(*types.Builtin)
	return ok && b.Name() == "close"
}

func isWaitGroupWait(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	t := info.TypeOf(sel.X)
	return t != nil && analysis.IsNamed(t, "sync", "WaitGroup")
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, clause := range s.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// inspectShallow walks the body without descending into function
// literals: each literal body gets its own funcBodies visit.
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}
