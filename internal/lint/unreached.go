package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// stdlibCalled names the methods the standard library calls through
// its own interfaces: fmt (String, Error, Format), errors (Unwrap, Is,
// As), sort and container/heap (Len, Less, Swap, Push, Pop),
// encoding/json (MarshalJSON, UnmarshalJSON), io (Read, Write, Close)
// and go/types (Import). A method of a type converted to an interface
// in reached code is reached by one of these names even when no module
// code calls it.
var stdlibCalled = map[string]bool{
	"String": true, "Error": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true,
	"Import": true,
}

// funcDecl is a top-level function or method of the module with the
// package that declares it.
type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// reachability is a rapid-type-analysis walk over the module: a
// function is reached when a reached body uses it, and a method is
// reached dynamically when its type was converted to an interface in
// reached code and its name is called through an interface there (or
// by the standard library, see stdlibCalled).
type reachability struct {
	decls     map[*types.Func]funcDecl
	reached   map[*types.Func]bool
	work      []*types.Func
	converted map[types.Type]bool
	called    map[string]bool          // method names called through an interface
	pending   map[string][]*types.Func // converted methods whose name is not called yet
}

// checkUnreached applies the unreached rule: every top-level function
// or method must be reachable from a root — main of a main package,
// an init, or a package-level variable initialiser. A function that
// carries a //lint:ignore unreached directive is kept and is a root
// too, so its callees need no directive of their own; its finding is
// still reported, for the directive to suppress (a directive on a
// function the roots reach is then unused-ignore).
func checkUnreached(pkgs []*Package, idx *ignoreIndex, report reportFunc) {
	r := &reachability{
		decls:     map[*types.Func]funcDecl{},
		reached:   map[*types.Func]bool{},
		converted: map[types.Type]bool{},
		called:    map[string]bool{},
		pending:   map[string][]*types.Func{},
	}
	var all []*types.Func
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					r.visit(p, d, nil)
				case *ast.FuncDecl:
					fn, ok := p.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					r.decls[fn] = funcDecl{p, d}
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Types.Name() == "main") {
						r.reach(fn)
					} else {
						all = append(all, fn)
					}
				}
			}
		}
	}
	r.drain()

	var kept []*types.Func
	for _, fn := range all {
		if !r.reached[fn] && r.hasDirective(fn, idx) {
			kept = append(kept, fn)
		}
	}
	for _, fn := range kept {
		r.reach(fn)
	}
	r.drain()
	for _, fn := range kept {
		r.reached[fn] = false
	}
	for _, fn := range all {
		if !r.reached[fn] {
			report(r.decls[fn].decl.Pos(), "unreached", fmt.Sprintf(
				"%s is reached from no main, init or package variable; delete it or annotate //lint:ignore unreached <reason>",
				funcName(fn)))
		}
	}
}

// hasDirective reports whether fn's func line, or the line above it,
// carries a //lint:ignore unreached directive.
func (r *reachability) hasDirective(fn *types.Func, idx *ignoreIndex) bool {
	fd := r.decls[fn]
	pos := fd.pkg.Fset.Position(fd.decl.Pos())
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range idx.byLine[pos.Filename][line] {
			if d.rule == "unreached" {
				return true
			}
		}
	}
	return false
}

// funcName renders fn as Name or Recv.Name.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// reach marks fn reached and queues its body.
func (r *reachability) reach(fn *types.Func) {
	if !r.reached[fn] {
		r.reached[fn] = true
		r.work = append(r.work, fn)
	}
}

// drain walks queued bodies until no new function is reached. A
// function declared outside the module has no body here.
func (r *reachability) drain() {
	for len(r.work) > 0 {
		fn := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		if fd, ok := r.decls[fn]; ok && fd.decl.Body != nil {
			r.visit(fd.pkg, fd.decl.Body, fn.Type().(*types.Signature))
		}
	}
}

// use records a use of fn: an interface method marks its name called,
// any other function of the module is reached.
func (r *reachability) use(fn *types.Func) {
	fn = fn.Origin()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		if r.called[fn.Name()] {
			return
		}
		r.called[fn.Name()] = true
		for _, m := range r.pending[fn.Name()] {
			r.reach(m)
		}
		delete(r.pending, fn.Name())
		return
	}
	r.reach(fn)
}

// convert records that a value of type t becomes an interface value:
// every method in t's method set can now be called dynamically.
func (r *reachability) convert(t types.Type) {
	if t == nil || types.IsInterface(t) || r.converted[t] {
		return
	}
	r.converted[t] = true
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if r.called[fn.Name()] || stdlibCalled[fn.Name()] {
			r.reach(fn)
		} else {
			r.pending[fn.Name()] = append(r.pending[fn.Name()], fn)
		}
	}
}

// assign records the implicit conversion of a src value to dst.
func (r *reachability) assign(src, dst types.Type) {
	if src != nil && dst != nil && types.IsInterface(dst) {
		r.convert(src)
	}
}

// assignAll records the conversions of values, which may be a single
// multi-value expression, to the types dst yields one by one (nil past
// the last).
func (r *reachability) assignAll(info *types.Info, values []ast.Expr, dst func(i int) types.Type) {
	if len(values) == 1 {
		if tuple, ok := info.TypeOf(values[0]).(*types.Tuple); ok {
			for i := 0; i < tuple.Len(); i++ {
				r.assign(tuple.At(i).Type(), dst(i))
			}
			return
		}
	}
	for i, v := range values {
		r.assign(info.TypeOf(v), dst(i))
	}
}

// visit walks node, a body whose enclosing signature is sig (nil at
// package level), recording uses and conversions to interfaces.
func (r *reachability) visit(p *Package, node ast.Node, sig *types.Signature) {
	info := p.Info
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if litSig, ok := info.TypeOf(n).(*types.Signature); ok {
				r.visit(p, n.Body, litSig)
			}
			return false
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok {
				r.use(fn)
			}
			if inst, ok := info.Instances[n]; ok {
				for i := 0; i < inst.TypeArgs.Len(); i++ {
					targ := inst.TypeArgs.At(i)
					r.convert(targ)
					if _, isPtr := targ.(*types.Pointer); !isPtr && !types.IsInterface(targ) {
						r.convert(types.NewPointer(targ))
					}
				}
			}
		case *ast.CallExpr:
			tv := info.Types[n.Fun]
			if tv.IsType() {
				if len(n.Args) == 1 {
					r.assign(info.TypeOf(n.Args[0]), tv.Type)
				}
				return true
			}
			if tv.Type == nil {
				return true
			}
			fsig, ok := tv.Type.Underlying().(*types.Signature)
			if !ok {
				return true
			}
			params := fsig.Params()
			param := func(i int) types.Type {
				if fsig.Variadic() && i >= params.Len()-1 {
					last := params.At(params.Len() - 1).Type()
					if n.Ellipsis.IsValid() {
						return last
					}
					if s, ok := last.Underlying().(*types.Slice); ok {
						return s.Elem()
					}
					return nil
				}
				if i < params.Len() {
					return params.At(i).Type()
				}
				return nil
			}
			r.assignAll(info, n.Args, param)
		case *ast.AssignStmt:
			r.assignAll(info, n.Rhs, func(i int) types.Type {
				if i < len(n.Lhs) {
					return info.TypeOf(n.Lhs[i])
				}
				return nil
			})
		case *ast.ValueSpec:
			if n.Type != nil {
				t := info.TypeOf(n.Type)
				r.assignAll(info, n.Values, func(int) types.Type { return t })
			}
		case *ast.ReturnStmt:
			if sig != nil {
				results := sig.Results()
				r.assignAll(info, n.Results, func(i int) types.Type {
					if i < results.Len() {
						return results.At(i).Type()
					}
					return nil
				})
			}
		case *ast.CompositeLit:
			r.compositeLit(info, n)
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				r.assign(info.TypeOf(n.Value), ch.Elem())
			}
		}
		return true
	})
}

// compositeLit records the conversions of a literal's elements to its
// field, element and key types.
func (r *reachability) compositeLit(info *types.Info, lit *ast.CompositeLit) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for i, elt := range lit.Elts {
		kv, isKV := elt.(*ast.KeyValueExpr)
		val := elt
		if isKV {
			val = kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if isKV {
				if key, ok := kv.Key.(*ast.Ident); ok {
					if field, ok := info.Uses[key].(*types.Var); ok {
						r.assign(info.TypeOf(val), field.Type())
					}
				}
			} else if i < u.NumFields() {
				r.assign(info.TypeOf(val), u.Field(i).Type())
			}
		case *types.Slice:
			r.assign(info.TypeOf(val), u.Elem())
		case *types.Array:
			r.assign(info.TypeOf(val), u.Elem())
		case *types.Map:
			if isKV {
				r.assign(info.TypeOf(kv.Key), u.Key())
			}
			r.assign(info.TypeOf(val), u.Elem())
		}
	}
}
