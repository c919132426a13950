package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file implements det-taint: the interprocedural closure of the
// syntactic determinism passes. det-time and det-rand flag the wall
// clock and the global RNG where the offending selector appears; they
// provably miss the laundered forms — a helper in another package
// returning time.Now().UnixNano(), a value passed through an identity
// wrapper, a nondeterministic value parked in a struct field and read
// back later (the fixture module pins one such miss). det-taint tracks
// *values derived from* those sources through assignments, call
// returns, and struct fields across the whole module, and reports when
// one reaches model-package state:
//
//   - a call in a model package to any function whose result carries
//     taint (laundering through helpers), and
//   - a write of a tainted value into a struct field or package-level
//     variable from model-package code (laundering through state).
//
// The analysis is a module-wide fixpoint over per-function summaries.
// Each summary records, per result, the source kinds it always
// carries and the parameters it forwards, so taint flows through
// helper chains of any depth. Within a function, taint propagates
// through assignment chains in source order (iterated to a local
// fixpoint, so loops converge); struct fields are tracked by field
// object, object-insensitively — writing a tainted value into field F
// anywhere taints reads of F everywhere, which is exactly the
// conservative direction for a determinism audit. Function literals,
// method values, interface method calls, and unknown (extra-module,
// non-source) callees are treated as clean: sources can only enter
// through the recognized time/rand functions and map iteration.
type taintKind uint8

const (
	taintTime taintKind = 1 << iota
	taintRand
	taintMapOrder
)

// describe renders the source kinds of a mask for diagnostics.
func (k taintKind) describe() string {
	var parts []string
	if k&taintTime != 0 {
		parts = append(parts, "the wall clock")
	}
	if k&taintRand != 0 {
		parts = append(parts, "the global RNG")
	}
	if k&taintMapOrder != 0 {
		parts = append(parts, "map iteration order")
	}
	return strings.Join(parts, " and ")
}

// taintMask carries source kinds plus symbolic per-parameter bits so a
// single intra-function pass yields both the concrete taint and the
// parameter-forwarding half of a summary. Parameter i of the function
// under analysis occupies bit i of params (capped at 32 parameters —
// far beyond anything in this module).
type taintMask struct {
	kinds  taintKind
	params uint32
}

func (m taintMask) or(o taintMask) taintMask {
	return taintMask{kinds: m.kinds | o.kinds, params: m.params | o.params}
}

func (m taintMask) zero() bool { return m.kinds == 0 && m.params == 0 }

// funcSummary describes how taint moves through one function.
type funcSummary struct {
	// results[i] is the taint of result i: source kinds it introduces
	// and the parameter bits it forwards.
	results []taintMask
}

// taintWorld is the module-wide analysis state.
type taintWorld struct {
	pkgs      []*Package
	summaries map[*types.Func]*funcSummary
	// state taint of struct fields and package-level variables, by
	// their types.Object.
	stateTaint map[types.Object]taintKind
	// decls locates each function's declaration for summary runs.
	decls map[*types.Func]*funcDecl
	order []*types.Func // deterministic iteration order
}

type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// checkTaint runs the det-taint pass: summaries over every package of
// the module, findings only in matched model packages.
func checkTaint(pkgs []*Package, inScope map[string]bool, cfg Config, report reportFunc) {
	w := &taintWorld{
		pkgs:       pkgs,
		summaries:  map[*types.Func]*funcSummary{},
		stateTaint: map[types.Object]taintKind{},
		decls:      map[*types.Func]*funcDecl{},
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				w.decls[obj] = &funcDecl{pkg: p, decl: fd}
				w.order = append(w.order, obj)
			}
		}
	}
	sort.Slice(w.order, func(i, j int) bool {
		return w.decls[w.order[i]].pkg.Fset.Position(w.decls[w.order[i]].decl.Pos()).String() <
			w.decls[w.order[j]].pkg.Fset.Position(w.decls[w.order[j]].decl.Pos()).String()
	})
	// Global fixpoint: summaries and state taint grow monotonically, so
	// iterating until nothing changes terminates.
	for changed := true; changed; {
		changed = false
		for _, fn := range w.order {
			if w.summarize(fn) {
				changed = true
			}
		}
	}
	// Report phase: model packages only.
	for _, p := range pkgs {
		if !inScope[p.Path] || !pathMatches(p.Path, cfg.ModelPaths) {
			continue
		}
		for _, fn := range w.order {
			if w.decls[fn].pkg == p {
				w.reportFunc(fn, report)
			}
		}
	}
}

// paramObjects returns the parameter (and receiver, first) objects of
// a function declaration, in signature order.
func paramObjects(p *Package, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					out = append(out, obj)
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return out
}

// summarize recomputes one function's summary against the current
// world state; it reports whether the summary or the global state
// taint grew.
func (w *taintWorld) summarize(fn *types.Func) bool {
	d := w.decls[fn]
	a := newTaintAnalysis(w, d)
	a.run()
	sum := w.summaries[fn]
	if sum == nil {
		sum = &funcSummary{results: make([]taintMask, a.numResults)}
		w.summaries[fn] = sum
		// A fresh summary counts as a change only if it is non-empty.
	}
	changed := false
	for i := range sum.results {
		merged := sum.results[i].or(a.results[i])
		if merged != sum.results[i] {
			sum.results[i] = merged
			changed = true
		}
	}
	if a.stateChanged {
		changed = true
	}
	return changed
}

// taintAnalysis is one intra-function pass.
type taintAnalysis struct {
	w            *taintWorld
	p            *Package
	fd           *ast.FuncDecl
	params       map[types.Object]int // param object -> bit index
	local        map[types.Object]taintMask
	results      []taintMask
	numResults   int
	stateChanged bool
	// quiet suppresses sink findings while still propagating taint —
	// used for map-order escapes, whose in-function reports are
	// det-maporder's territory; det-taint only follows the value across
	// function boundaries.
	quiet bool
	// findings collects (pos, mask, what) sinks for the report phase.
	findings []taintFinding
}

type taintFinding struct {
	pos  token.Pos
	mask taintKind
	msg  string
}

func newTaintAnalysis(w *taintWorld, d *funcDecl) *taintAnalysis {
	a := &taintAnalysis{
		w:      w,
		p:      d.pkg,
		fd:     d.decl,
		params: map[types.Object]int{},
		local:  map[types.Object]taintMask{},
	}
	for i, obj := range paramObjects(d.pkg, d.decl) {
		if i < 32 {
			a.params[obj] = i
		}
	}
	if res := d.decl.Type.Results; res != nil {
		for _, field := range res.List {
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			a.numResults += n
		}
	}
	a.results = make([]taintMask, a.numResults)
	return a
}

// run iterates the statement walk to a local fixpoint so taint carried
// backward by loops converges.
func (a *taintAnalysis) run() {
	for round := 0; round < 4; round++ {
		before := len(a.local)
		var grew bool
		a.walk(a.fd.Body, &grew)
		if !grew && len(a.local) == before {
			return
		}
	}
}

// walk processes statements, updating local taint, results, global
// state taint, and sink findings.
func (a *taintAnalysis) walk(body *ast.BlockStmt, grew *bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // separate function; conservatively clean
		case *ast.AssignStmt:
			a.assign(x, grew)
		case *ast.RangeStmt:
			a.rangeStmt(x, grew)
		case *ast.ReturnStmt:
			a.returnStmt(x, grew)
		case *ast.CallExpr:
			a.sortClears(x)
		}
		return true
	})
	// Bare returns with named results: fold the named-result objects'
	// final taint into the summary.
	if res := a.fd.Type.Results; res != nil {
		i := 0
		for _, field := range res.List {
			for _, name := range field.Names {
				if obj := a.p.Info.Defs[name]; obj != nil {
					m := a.results[i].or(a.local[obj])
					if m != a.results[i] {
						a.results[i] = m
						*grew = true
					}
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
}

// assign propagates taint through one assignment and records state
// sinks (field and package-variable writes of tainted values).
func (a *taintAnalysis) assign(as *ast.AssignStmt, grew *bool) {
	masks := make([]taintMask, len(as.Lhs))
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// Tuple assignment from a single call: every lhs gets the
		// call's corresponding result mask.
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			rm := a.callResults(call, len(as.Lhs))
			copy(masks, rm)
		}
	} else {
		for i := range as.Lhs {
			if i < len(as.Rhs) {
				masks[i] = a.exprMask(as.Rhs[i])
			}
		}
	}
	for i, lhs := range as.Lhs {
		a.store(lhs, masks[i], grew)
	}
}

// store writes a mask into an assignment target, tracking locals,
// fields, and package variables.
func (a *taintAnalysis) store(target ast.Expr, m taintMask, grew *bool) {
	switch t := target.(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return
		}
		obj := a.p.Info.Defs[t]
		if obj == nil {
			obj = a.p.Info.Uses[t]
		}
		if obj == nil {
			return
		}
		if isPackageVar(obj) {
			a.taintState(obj, m, t.Pos(), fmt.Sprintf("package variable %s", obj.Name()), grew)
			return
		}
		merged := a.local[obj].or(m)
		if merged != a.local[obj] {
			a.local[obj] = merged
			*grew = true
		}
	case *ast.SelectorExpr:
		if fieldObj := a.fieldOf(t); fieldObj != nil {
			a.taintState(fieldObj, m, t.Pos(), fmt.Sprintf("field %s", fieldLabel(fieldObj)), grew)
			return
		}
		// Selector that is not a field (e.g. other-package var).
		if id, ok := t.X.(*ast.Ident); ok {
			if _, isPkg := a.p.Info.Uses[id].(*types.PkgName); isPkg {
				if obj := a.p.Info.Uses[t.Sel]; obj != nil && isPackageVar(obj) {
					a.taintState(obj, m, t.Pos(), fmt.Sprintf("package variable %s", obj.Name()), grew)
				}
			}
		}
	case *ast.IndexExpr:
		a.store(t.X, m, grew) // container absorbs element taint
	case *ast.StarExpr:
		a.store(t.X, m, grew)
	case *ast.ParenExpr:
		a.store(t.X, m, grew)
	}
}

// taintState merges a mask into a field or package variable and, when
// the write happens in a model package with concrete source kinds,
// records a sink finding.
func (a *taintAnalysis) taintState(obj types.Object, m taintMask, pos token.Pos, what string, grew *bool) {
	concrete := m.kinds
	prev := a.w.stateTaint[obj]
	if merged := prev | concrete; merged != prev {
		a.w.stateTaint[obj] = merged
		a.stateChanged = true
		*grew = true
	}
	if concrete != 0 && !a.quiet {
		a.findings = append(a.findings, taintFinding{pos: pos, mask: concrete,
			msg: fmt.Sprintf("value derived from %s stored in %s", concrete.describe(), what)})
	}
}

// rangeStmt handles map ranges: appends of iteration-derived values
// into slices that outlive the loop make the slice order-tainted.
func (a *taintAnalysis) rangeStmt(rs *ast.RangeStmt, grew *bool) {
	tv, ok := a.p.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// Sort-after-collect is the sanctioned idiom (same carve-out as
	// det-maporder): a subsequent sort launders the order legitimately.
	if sortCallAfter(a.fd.Body, rs.End()) {
		return
	}
	iterObjs := rangeVarObjects(a.p, rs)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
				continue
			}
			appendsIter := false
			for _, arg := range call.Args[1:] {
				if mentionsObjects(a.p, arg, iterObjs) {
					appendsIter = true
				}
			}
			if appendsIter && i < len(as.Lhs) && appendTargetEscapes(a.p, rs, as.Lhs[i]) {
				a.quiet = true
				a.store(as.Lhs[i], taintMask{kinds: taintMapOrder}, grew)
				a.quiet = false
			}
		}
		return true
	})
}

// sortClears removes the map-order bit from a slice passed to a
// sort-like call: sorting after collection is the sanctioned idiom.
func (a *taintAnalysis) sortClears(call *ast.CallExpr) {
	name := ""
	switch f := call.Fun.(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		if id, ok := f.X.(*ast.Ident); ok && (id.Name == "sort" || id.Name == "slices") {
			name = "sort"
		} else {
			name = f.Sel.Name
		}
	}
	if !strings.Contains(strings.ToLower(name), "sort") {
		return
	}
	for _, arg := range call.Args {
		id, ok := arg.(*ast.Ident)
		if !ok {
			continue
		}
		obj := a.p.Info.Uses[id]
		if obj == nil {
			continue
		}
		if m, ok := a.local[obj]; ok && m.kinds&taintMapOrder != 0 {
			m.kinds &^= taintMapOrder
			a.local[obj] = m
		}
	}
}

// returnStmt folds result expressions into the summary.
func (a *taintAnalysis) returnStmt(ret *ast.ReturnStmt, grew *bool) {
	if len(ret.Results) == 0 {
		return // named results folded in walk
	}
	if len(ret.Results) == 1 && a.numResults > 1 {
		if call, ok := ret.Results[0].(*ast.CallExpr); ok {
			for i, m := range a.callResults(call, a.numResults) {
				merged := a.results[i].or(m)
				if merged != a.results[i] {
					a.results[i] = merged
					*grew = true
				}
			}
			return
		}
	}
	for i, res := range ret.Results {
		if i >= len(a.results) {
			break
		}
		m := a.exprMask(res)
		merged := a.results[i].or(m)
		if merged != a.results[i] {
			a.results[i] = merged
			*grew = true
		}
	}
}

// exprMask computes the taint mask of an expression.
func (a *taintAnalysis) exprMask(e ast.Expr) taintMask {
	switch x := e.(type) {
	case *ast.Ident:
		obj := a.p.Info.Uses[x]
		if obj == nil {
			obj = a.p.Info.Defs[x]
		}
		if obj == nil {
			return taintMask{}
		}
		if bit, ok := a.params[obj]; ok {
			return taintMask{params: 1 << uint(bit)}
		}
		m := a.local[obj]
		m.kinds |= a.w.stateTaint[obj]
		return m
	case *ast.SelectorExpr:
		if _, isFunc := a.p.Info.Uses[x.Sel].(*types.Func); isFunc {
			// A method value or function reference is code, not a value
			// derived from a source: like the function literal that would
			// wrap the same call, it is conservatively clean.
			return taintMask{}
		}
		m := taintMask{}
		if fieldObj := a.fieldOf(x); fieldObj != nil {
			m.kinds |= a.w.stateTaint[fieldObj]
		}
		if obj := a.p.Info.Uses[x.Sel]; obj != nil && isPackageVar(obj) {
			m.kinds |= a.w.stateTaint[obj]
		}
		if _, isPkg := a.p.Info.Uses[identOf(x.X)].(*types.PkgName); !isPkg {
			m = m.or(a.exprMask(x.X))
		}
		return m
	case *ast.CallExpr:
		res := a.callResults(x, 1)
		return res[0]
	case *ast.BinaryExpr:
		return a.exprMask(x.X).or(a.exprMask(x.Y))
	case *ast.UnaryExpr:
		return a.exprMask(x.X)
	case *ast.ParenExpr:
		return a.exprMask(x.X)
	case *ast.StarExpr:
		return a.exprMask(x.X)
	case *ast.IndexExpr:
		return a.exprMask(x.X).or(a.exprMask(x.Index))
	case *ast.SliceExpr:
		return a.exprMask(x.X)
	case *ast.TypeAssertExpr:
		return a.exprMask(x.X)
	case *ast.CompositeLit:
		m := taintMask{}
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				vm := a.exprMask(kv.Value)
				m = m.or(vm)
				// A tainted value placed in a struct literal field taints
				// that field globally, same as an explicit field write.
				if id, ok := kv.Key.(*ast.Ident); ok {
					if fobj, ok := a.p.Info.Uses[id].(*types.Var); ok && fobj.IsField() {
						prev := a.w.stateTaint[fobj]
						if merged := prev | vm.kinds; merged != prev {
							a.w.stateTaint[fobj] = merged
							a.stateChanged = true
						}
					}
				}
			} else {
				m = m.or(a.exprMask(elt))
			}
		}
		return m
	}
	return taintMask{}
}

// callResults computes the per-result taint of a call: recognized
// sources introduce their kind; module functions apply their summary
// (substituting argument taint for forwarded parameters); conversions
// and builtins forward their operands; everything else is clean.
func (a *taintAnalysis) callResults(call *ast.CallExpr, want int) []taintMask {
	out := make([]taintMask, want)
	if kind := sourceKindOfCall(a.p, call); kind != 0 {
		for i := range out {
			out[i] = taintMask{kinds: kind}
		}
		return out
	}
	// Type conversion: T(x) forwards x.
	if tv, ok := a.p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		m := a.exprMask(call.Args[0])
		for i := range out {
			out[i] = m
		}
		return out
	}
	callee := calleeFunc(a.p, call)
	if callee == nil {
		// Builtins (append, copy, ...) and unknown callees: forward the
		// union of argument taint for builtins, clean otherwise.
		if id, ok := call.Fun.(*ast.Ident); ok {
			if _, isBuiltin := a.p.Info.Uses[id].(*types.Builtin); isBuiltin {
				m := taintMask{}
				for _, arg := range call.Args {
					m = m.or(a.exprMask(arg))
				}
				for i := range out {
					out[i] = m
				}
			}
		}
		return out
	}
	// Argument masks in receiver-first order, mirroring paramObjects.
	var args []taintMask
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if _, isPkg := a.p.Info.Uses[identOf(sel.X)].(*types.PkgName); !isPkg {
			args = append(args, a.exprMask(sel.X)) // method receiver
		}
	}
	for _, arg := range call.Args {
		args = append(args, a.exprMask(arg))
	}
	sum := a.w.summaries[callee]
	if sum == nil {
		// Extra-module callee (stdlib, mostly): no summary, so forward
		// the union of receiver and argument taint — time.Now().UnixNano()
		// must stay tainted through the method call, and time.Unix(s, ns)
		// through its arguments. Sources can't *originate* here (those
		// are recognized above), taint only passes through.
		m := taintMask{}
		for _, am := range args {
			m = m.or(am)
		}
		for i := range out {
			out[i] = m
		}
		return out
	}
	for i := 0; i < want && i < len(sum.results); i++ {
		m := taintMask{kinds: sum.results[i].kinds}
		for bit := 0; bit < len(args) && bit < 32; bit++ {
			if sum.results[i].params&(1<<uint(bit)) != 0 {
				m = m.or(args[bit])
			}
		}
		out[i] = m
	}
	return out
}

// reportFunc re-runs the (converged) analysis for one model-package
// function and emits its sink findings plus laundered-call findings:
// calls whose results carry taint without a source selector at the
// call site.
func (w *taintWorld) reportFunc(fn *types.Func, report reportFunc) {
	d := w.decls[fn]
	a := newTaintAnalysis(w, d)
	a.run()
	seen := map[token.Pos]bool{}
	for _, f := range a.findings {
		if seen[f.pos] {
			continue
		}
		seen[f.pos] = true
		report(f.pos, "det-taint", f.msg+"; model-layer state must be deterministic")
	}
	// Laundered calls: a call in model code to a function summarized as
	// tainted. Direct source calls (time.Now()) are det-time/det-rand's
	// territory and are skipped here.
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sourceKindOfCall(a.p, call) != 0 {
			return true
		}
		callee := calleeFunc(a.p, call)
		if callee == nil {
			return true
		}
		sum := w.summaries[callee]
		if sum == nil {
			return true
		}
		kinds := taintKind(0)
		for _, r := range sum.results {
			kinds |= r.kinds
		}
		if kinds == 0 {
			return true
		}
		report(call.Pos(), "det-taint", fmt.Sprintf(
			"call to %s returns a value derived from %s; model-layer code must take such inputs explicitly",
			callee.Name(), kinds.describe()))
		return true
	})
}

// sourceKindOfCall recognizes the determinism sources in call
// position: the wall-clock readers and the global-RNG package
// functions (same sets the syntactic det-time/det-rand passes use).
func sourceKindOfCall(p *Package, call *ast.CallExpr) taintKind {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return 0
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return 0
	}
	switch pn.Imported().Path() {
	case "time":
		if wallClockFuncs[sel.Sel.Name] {
			return taintTime
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[sel.Sel.Name] {
			return taintRand
		}
	}
	return 0
}

// calleeFunc resolves a call to a statically-known *types.Func (plain
// function or concrete method). Interface methods resolve to a
// *types.Func too, but have no body in w.decls and therefore no
// summary, which keeps them conservatively clean.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// fieldOf resolves a selector to the struct field object it denotes,
// or nil.
func (a *taintAnalysis) fieldOf(sel *ast.SelectorExpr) types.Object {
	if s, ok := a.p.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	return nil
}

// isPackageVar reports whether obj is a package-level variable.
func isPackageVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if obj.Parent() == nil {
		return false
	}
	pkg := obj.Pkg()
	return pkg != nil && obj.Parent() == pkg.Scope()
}

// fieldLabel renders a field as Type.name when the owning struct is a
// named type.
func fieldLabel(obj types.Object) string {
	return obj.Name()
}

// identOf unwraps an expression to its base identifier, or nil.
func identOf(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
