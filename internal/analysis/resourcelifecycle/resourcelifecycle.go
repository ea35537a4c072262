// Package resourcelifecycle tracks values that carry a Close obligation —
// open files, gzip streams, and any type annotated `//rolosan:resource` —
// from their creation to the end of the creating function, and flags three
// lifecycle bugs:
//
//   - leak: a path from the constructor call to a function exit on which
//     the value is never closed and ownership is never handed off;
//   - double-close: a Close on a path where the value may already be
//     closed;
//   - dropped-error: a bare or deferred Close/Flush on a resource whose
//     error result is silently discarded (the resource-typed slice of
//     errpropagation, which exempts Close/Flush in this analyzer's favor).
//
// The analysis is interprocedural in two ways. Constructors are
// recognized by a name gate — a statically resolved callee named New*,
// Open* or Create* whose results include a resource type — so in-package
// and cross-package wrappers around os.Open and friends give birth to
// tracked values too. And helper calls are interpreted through bottom-up
// summaries: for every function with resource-typed parameters or
// receiver the analyzer records, per slot, whether the function closes,
// merely borrows, or takes ownership of ("escapes") the value, folding
// callee summaries over the callgraph's SCCs and exporting the result as
// facts (namespace "resourcelifecycle") so downstream packages see them.
//
// Within one function the tracking is a forward may-analysis per birth
// site over the CFG with the two-point universe {pending, closed}. A
// Close (direct, deferred, via an in-closure `v.Close()`, or through a
// summarized helper) moves the state to closed; storing, returning,
// capturing for non-close purposes, or passing the value to an unknown or
// owning callee ends the tracking (ownership left this function, which is
// not a leak); err-check refinement drops the obligation on the `err !=
// nil` edge of the constructor's paired error, where the resource is nil.
// Passing the value to a pure-read standard-library package (io, bufio,
// fmt, ...) borrows it and keeps the obligation alive. Unanalyzable
// bodies (goto, labeled branches, select, type switches) are skipped
// rather than over-reported.
//
// Resource types: *os.File, gzip.Writer and gzip.Reader are built in;
// repository types opt in with a `//rolosan:resource` directive on the
// type declaration, which is exported as a fact so importing packages
// track them too. Annotating an interface (such as journal.EventWriter)
// marks every value of that interface type.
//
// Scope: packages with an "internal" or "cmd" path segment, excluding
// _test.go files — the same surface errpropagation checks.
package resourcelifecycle

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/rolo-storage/rolo/internal/analysis"
	"github.com/rolo-storage/rolo/internal/analysis/callgraph"
	"github.com/rolo-storage/rolo/internal/analysis/cfg"
)

// Analyzer is the resourcelifecycle check.
var Analyzer = &analysis.Analyzer{
	Name: "resourcelifecycle",
	Doc:  "track Close obligations of resource values across helper calls; flag leaks, double closes and dropped Close errors",
	Run:  run,
}

const (
	// resNS is the fact namespace: resource-type annotations keyed by
	// type, and slot dispositions keyed by function.
	resNS = "resourcelifecycle"
	// resourceDirective marks a type whose values carry a Close
	// obligation.
	resourceDirective = "rolosan:resource"
)

// Slot dispositions, ordered borrows < closes < escapes: what a function
// does with a resource-typed parameter or receiver.
const (
	dispBorrows = "borrows" // reads or writes through it; obligation stays with the caller
	dispCloses  = "closes"  // discharges the caller's obligation
	dispEscapes = "escapes" // stores, returns or otherwise takes ownership
)

// May-analysis universe per birth site.
const (
	stPending = iota // created, not yet closed
	stClosed         // closed on this path
)

// resTypeFact marks an annotated resource type for importing packages.
type resTypeFact struct {
	Resource bool `json:"resource"`
}

// resSummary is one function's per-slot dispositions. Params entries are
// "" for parameters that are not resource-typed.
type resSummary struct {
	Recv   string   `json:"recv,omitempty"`
	Params []string `json:"params,omitempty"`
}

// borrowPkgs lists standard-library packages whose functions read or
// write through a resource argument without assuming ownership of it.
var borrowPkgs = map[string]bool{
	"io": true, "bufio": true, "fmt": true, "bytes": true,
	"strings": true, "sort": true, "errors": true,
	"encoding/json": true, "encoding/binary": true,
	"compress/gzip": true, "hash/crc32": true,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !analysis.HasPathSegment(path, "internal") && !analysis.HasPathSegment(path, "cmd") {
		return nil
	}
	c := &checker{
		pass:      pass,
		det:       NewDetector(pass),
		summaries: make(map[*types.Func]*resSummary),
	}
	for tn := range c.det.annotated {
		pass.ExportFact(resNS, tn, resTypeFact{Resource: true})
	}
	c.computeSummaries()
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, body := range functionBodies(file) {
			c.checkBody(body)
		}
		c.checkDroppedErrors(file)
	}
	return nil
}

type checker struct {
	pass      *analysis.Pass
	det       *Detector
	summaries map[*types.Func]*resSummary
}

func (c *checker) isResource(t types.Type) bool { return c.det.IsResource(t) }

// functionBodies returns every function body in the file — declarations
// and literals — each to be analyzed as its own function, mirroring the
// CFG builder's view that a literal's interior control flow is invisible
// to its enclosing function.
func functionBodies(file *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				bodies = append(bodies, n.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, n.Body)
		}
		return true
	})
	return bodies
}

// --- resource types -------------------------------------------------

// A Detector resolves which types carry a Close obligation under one
// pass: the built-in resources (*os.File, gzip.Writer, gzip.Reader), the
// current package's `//rolosan:resource` declarations, and annotated
// types imported through facts. It is exported so errpropagation can
// cede dropped Close/Flush reporting on resources to this analyzer while
// keeping it for everything else.
type Detector struct {
	pass      *analysis.Pass
	annotated map[*types.TypeName]bool // this package's //rolosan:resource types
	cache     map[*types.TypeName]bool // resolved resource-ness per named type
}

// NewDetector scans the pass's files for `//rolosan:resource`
// declarations and returns a detector over them, the built-ins, and the
// pass's imported facts.
func NewDetector(pass *analysis.Pass) *Detector {
	d := &Detector{
		pass:      pass,
		annotated: make(map[*types.TypeName]bool),
		cache:     make(map[*types.TypeName]bool),
	}
	d.collectAnnotations()
	return d
}

// collectAnnotations records this package's `//rolosan:resource` types.
func (c *Detector) collectAnnotations() {
	for _, file := range c.pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !hasDirective(gd.Doc) && !hasDirective(ts.Doc) && !hasDirective(ts.Comment) {
					continue
				}
				if tn, ok := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
					c.annotated[tn] = true
				}
			}
		}
	}
}

func hasDirective(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, cm := range cg.List {
		text := strings.TrimPrefix(cm.Text, "//")
		if text == resourceDirective || strings.HasPrefix(text, resourceDirective+" ") {
			return true
		}
	}
	return false
}

// IsResource reports whether t — after stripping one level of pointer —
// is a type whose values carry a Close obligation.
func (c *Detector) IsResource(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return false
	}
	if v, ok := c.cache[tn]; ok {
		return v
	}
	v := c.resolveResource(tn)
	c.cache[tn] = v
	return v
}

func (c *Detector) resolveResource(tn *types.TypeName) bool {
	pkgPath, name := tn.Pkg().Path(), tn.Name()
	switch {
	case pkgPath == "os" && name == "File":
		return true
	case pkgPath == "compress/gzip" && (name == "Writer" || name == "Reader"):
		return true
	}
	if c.annotated[tn] {
		return true
	}
	var f resTypeFact
	return c.pass.ImportFact(resNS, tn, &f) && f.Resource
}

// --- summaries ------------------------------------------------------

// computeSummaries folds per-slot dispositions bottom-up over the
// package's callgraph SCCs, iterating within each component until the
// mutual-recursion fixpoint, then exports every summary as a fact.
func (c *checker) computeSummaries() {
	g := callgraph.Build(c.pass.Files, c.pass.TypesInfo)
	for _, scc := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, node := range scc {
				s := c.summarize(node)
				if !summaryEqual(c.summaries[node.Func], s) {
					c.summaries[node.Func] = s
					changed = true
				}
			}
		}
	}
	for fn, s := range c.summaries {
		if s != nil {
			c.pass.ExportFact(resNS, fn, s)
		}
	}
}

func summaryEqual(a, b *resSummary) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Recv != b.Recv || len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			return false
		}
	}
	return true
}

// summarize computes one function's summary, or nil when no parameter or
// receiver is resource-typed.
func (c *checker) summarize(node *callgraph.Node) *resSummary {
	sig, ok := node.Func.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var tracked []*types.Var
	var slots []int // -1 for receiver, else parameter index
	if recv := sig.Recv(); recv != nil && c.isResource(recv.Type()) && recv.Name() != "" && recv.Name() != "_" {
		tracked = append(tracked, recv)
		slots = append(slots, -1)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if c.isResource(p.Type()) && p.Name() != "" && p.Name() != "_" {
			tracked = append(tracked, p)
			slots = append(slots, i)
		}
	}
	if len(tracked) == 0 {
		return nil
	}
	s := &resSummary{Params: make([]string, sig.Params().Len())}
	for i, v := range tracked {
		disp := c.classifyUses(node.Decl.Body, v)
		if slots[i] < 0 {
			s.Recv = disp
		} else {
			s.Params[slots[i]] = disp
		}
	}
	return s
}

// classifyUses folds every appearance of obj in body into one
// disposition: any escaping use wins, else any closing use, else the
// value is only borrowed.
func (c *checker) classifyUses(body *ast.BlockStmt, obj types.Object) string {
	disp := dispBorrows
	analysis.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || c.pass.TypesInfo.Uses[id] != obj {
			return true
		}
		switch c.useKind(stack, id) {
		case dispEscapes:
			disp = dispEscapes
		case dispCloses:
			if disp == dispBorrows {
				disp = dispCloses
			}
		}
		return true
	})
	return disp
}

// useKind classifies a single appearance of a tracked value from its
// syntactic context: the receiver of a method call, an argument to a
// call, or anything else (a store, return, capture — an escape).
func (c *checker) useKind(stack []ast.Node, id *ast.Ident) string {
	if len(stack) == 0 {
		return dispEscapes
	}
	info := c.pass.TypesInfo
	parent := stack[len(stack)-1]
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
		// Method (or field) selection on the value. Only a call through
		// the selection is interpretable; a method value escapes.
		if len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == sel {
				if sel.Sel.Name == "Close" {
					return dispCloses
				}
				callee, _ := info.Uses[sel.Sel].(*types.Func)
				if s := c.summaryFor(callee); s != nil && s.Recv != "" {
					return s.Recv
				}
				// A method reads or writes through its own receiver; it
				// does not move ownership unless its summary says so.
				return dispBorrows
			}
		}
		return dispEscapes
	}
	if call, ok := parent.(*ast.CallExpr); ok && call.Fun != id {
		for i, arg := range call.Args {
			if arg == id {
				return c.argDisposition(call, i)
			}
		}
	}
	return dispEscapes
}

// argDisposition resolves what a call does with its i-th argument: the
// callee's summary slot when one exists, a borrow for the pure-read
// standard-library packages, and an ownership transfer otherwise.
func (c *checker) argDisposition(call *ast.CallExpr, i int) string {
	info := c.pass.TypesInfo
	callee := callgraph.StaticCallee(info, call)
	if callee == nil {
		return dispEscapes
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodExpr {
			// T.M(v, ...) shifts every argument by one; too rare to model.
			return dispEscapes
		}
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil {
		return dispEscapes
	}
	if s := c.summaryFor(callee); s != nil {
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len()-1 {
			pi = sig.Params().Len() - 1
		}
		if pi >= 0 && pi < len(s.Params) && s.Params[pi] != "" {
			return s.Params[pi]
		}
	}
	if callee.Pkg() != nil && borrowPkgs[callee.Pkg().Path()] {
		return dispBorrows
	}
	return dispEscapes
}

// summaryFor returns the disposition summary of fn: this package's, or
// an imported fact, or nil.
func (c *checker) summaryFor(fn *types.Func) *resSummary {
	if fn == nil {
		return nil
	}
	if s, ok := c.summaries[fn]; ok {
		return s
	}
	var s resSummary
	if c.pass.ImportFact(resNS, fn, &s) {
		c.summaries[fn] = &s
		return &s
	}
	c.summaries[fn] = nil
	return nil
}

// --- per-function lifecycle checking --------------------------------

// A birth is one tracked creation site: a local variable assigned a
// resource result of a constructor call.
type birth struct {
	v      types.Object  // the local holding the resource
	stmt   ast.Stmt      // the assignment statement
	call   *ast.CallExpr // the constructor call
	callee *types.Func   // statically resolved constructor
	errVar types.Object  // paired error result's variable, or nil
	// errStop bounds err-check refinement: the position of the first
	// reassignment of errVar after the birth. Checks of errVar past this
	// point speak about some other call's error, not the constructor's.
	errStop token.Pos
}

// checkBody runs the per-birth may-analysis over one function body.
func (c *checker) checkBody(body *ast.BlockStmt) {
	births := c.collectBirths(body)
	if len(births) == 0 {
		return
	}
	g := cfg.Build(body)
	if g.Unanalyzable {
		return // over-approximation would drown the signal; stay silent
	}
	for _, b := range births {
		c.checkBirth(g, b)
	}
}

// collectBirths finds constructor-call assignments in body, not
// descending into nested function literals (each is its own function).
func (c *checker) collectBirths(body *ast.BlockStmt) []*birth {
	info := c.pass.TypesInfo
	var births []*birth
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := callgraph.StaticCallee(info, call)
		if callee == nil || !constructorName(callee.Name()) {
			return true
		}
		sig, _ := callee.Type().(*types.Signature)
		if sig == nil {
			return true
		}
		results := sig.Results()
		if results.Len() != len(as.Lhs) {
			return true
		}
		// Pair a single error result with its variable for the nil-check
		// refinement.
		var errVar types.Object
		for i := 0; i < results.Len() && i < len(as.Lhs); i++ {
			if types.Identical(results.At(i).Type(), errorType) {
				if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					errVar = lhsObject(info, id)
				}
			}
		}
		for i := 0; i < results.Len() && i < len(as.Lhs); i++ {
			if !c.isResource(results.At(i).Type()) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			v := lhsObject(info, id)
			if v == nil {
				continue
			}
			births = append(births, &birth{
				v: v, stmt: as, call: call, callee: callee,
				errVar:  errVar,
				errStop: nextAssignment(info, body, errVar, as.End()),
			})
		}
		return true
	})
	return births
}

var errorType = types.Universe.Lookup("error").Type()

// constructorName gates which statically resolved callees give birth to
// tracked values. The convention is load-bearing: a New*/Open*/Create*
// function returning a resource hands a fresh obligation to its caller.
func constructorName(name string) bool {
	for _, prefix := range []string{"New", "Open", "Create"} {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			if rest == "" || rest[0] < 'a' || rest[0] > 'z' {
				return true
			}
		}
	}
	// Unexported wrappers follow the same convention.
	for _, prefix := range []string{"new", "open", "create"} {
		if rest, ok := strings.CutPrefix(name, prefix); ok && rest != "" && (rest[0] < 'a' || rest[0] > 'z') {
			return true
		}
	}
	return false
}

// lhsObject resolves an assignment target: a Defs entry for `:=`
// declarations, a Uses entry for plain assignments and redeclarations.
func lhsObject(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() {
		return v
	}
	return nil
}

// nextAssignment returns the position of the first assignment to obj
// after pos, or token.Pos of the body end when there is none.
func nextAssignment(info *types.Info, body *ast.BlockStmt, obj types.Object, pos token.Pos) token.Pos {
	stop := body.End()
	if obj == nil {
		return stop
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || lhsObject(info, id) != obj || id.Pos() <= pos {
				continue
			}
			if id.Pos() < stop {
				stop = id.Pos()
			}
		}
		return true
	})
	return stop
}

// checkBirth solves the {pending, closed} may-analysis for one birth and
// reports leaks and double closes.
func (c *checker) checkBirth(g *cfg.Graph, b *birth) {
	transfer := func(s ast.Stmt, in cfg.Set) cfg.Set {
		return c.transfer(b, s, in, nil)
	}
	refine := func(cond *cfg.Cond, in cfg.Set) cfg.Set {
		return c.refine(b, cond, in)
	}
	in := g.Solve(0, transfer, refine)

	// Report double closes by replaying each block once against its
	// solved entry state.
	for _, blk := range g.Blocks {
		state, ok := in[blk]
		if !ok {
			continue // unreached
		}
		for _, s := range blk.Stmts {
			state = c.transfer(b, s, state, func(pos token.Pos) {
				c.pass.Reportf(pos, "double-close",
					"%s may already be closed here (double close)", b.v.Name())
			})
		}
		// A leak is a pending obligation flowing off a non-panic exit.
		if len(blk.Succs) == 0 && state.Has(stPending) && !blockPanics(blk) {
			c.pass.Reportf(b.call.Pos(), "leak",
				"%s returned by %s is not closed on every path; close it, defer a close, or hand ownership off",
				typeString(c.pass.TypesInfo, b.call), calleeLabel(b.callee))
			return // one leak report per birth
		}
	}
}

func blockPanics(blk *cfg.Block) bool {
	return len(blk.Stmts) > 0 && cfg.IsPanicStmt(blk.Stmts[len(blk.Stmts)-1])
}

// transfer folds one statement over a birth's state set. onDouble, when
// non-nil, receives the position of a Close that may re-close the value
// (the reporting replay); the solver passes nil.
func (c *checker) transfer(b *birth, s ast.Stmt, in cfg.Set, onDouble func(token.Pos)) cfg.Set {
	if s == b.stmt {
		return cfg.Only(stPending)
	}
	if in.Empty() {
		return in
	}
	escapes, closes := false, false
	var closePos token.Pos
	analysis.WalkStack(s, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || c.pass.TypesInfo.Uses[id] != b.v {
			return true
		}
		switch c.useKind(stack, id) {
		case dispEscapes:
			escapes = true
		case dispCloses:
			closes = true
			if !closePos.IsValid() {
				closePos = id.Pos()
			}
		}
		return true
	})
	switch {
	case escapes:
		return 0 // ownership left this function; obligation discharged
	case closes:
		if in.Has(stClosed) && onDouble != nil {
			onDouble(closePos)
		}
		return cfg.Only(stClosed)
	default:
		return in
	}
}

// refine interprets an `err == nil` / `err != nil` edge for the birth's
// paired error: on the error edge the constructor failed and the
// resource is nil, so the obligation vanishes. Checks positioned after
// errVar's next reassignment are about some other error and refine
// nothing.
func (c *checker) refine(b *birth, cond *cfg.Cond, in cfg.Set) cfg.Set {
	if b.errVar == nil || len(cond.Vals) != 1 || !isNilIdent(cond.Vals[0]) {
		return in
	}
	id, ok := ast.Unparen(cond.Expr).(*ast.Ident)
	if !ok || c.pass.TypesInfo.Uses[id] != b.errVar || id.Pos() >= b.errStop {
		return in
	}
	if cond.Negated {
		return 0 // err != nil: the constructor failed, nothing was created
	}
	return in
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// --- dropped Close/Flush errors -------------------------------------

// checkDroppedErrors flags bare and deferred Close/Flush calls on
// resource values whose error result is discarded.
func (c *checker) checkDroppedErrors(file *ast.File) {
	info := c.pass.TypesInfo
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
		default:
			return true
		}
		if call == nil {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Flush") || len(call.Args) != 0 {
			return true
		}
		fn, _ := info.Uses[sel.Sel].(*types.Func)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil || !resultsIncludeError(sig.Results()) {
			return true
		}
		recv := info.Types[sel.X]
		if !c.isResource(recv.Type) {
			return true
		}
		c.pass.Reportf(call.Pos(), "dropped-error",
			"%s to %s drops its error; handle it, return it, or discard explicitly with `_ =`", how, methodLabel(fn))
		return true
	})
}

func resultsIncludeError(results *types.Tuple) bool {
	for i := 0; i < results.Len(); i++ {
		if types.Identical(results.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}

// --- message rendering ----------------------------------------------

func shortPkg(p *types.Package) string { return p.Name() }

// typeString renders the resource type a constructor call produced, for
// the leak message.
func typeString(info *types.Info, call *ast.CallExpr) string {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return "resource"
	}
	t := tv.Type
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if !types.Identical(tuple.At(i).Type(), errorType) {
				t = tuple.At(i).Type()
				break
			}
		}
	}
	return types.TypeString(t, shortPkg)
}

func calleeLabel(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "(" + types.TypeString(sig.Recv().Type(), shortPkg) + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

func methodLabel(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "(" + types.TypeString(sig.Recv().Type(), shortPkg) + ")." + fn.Name()
	}
	return fn.Name()
}
