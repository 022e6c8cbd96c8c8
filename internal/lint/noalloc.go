package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// analyzeNoalloc walks every //ringlint:noalloc-marked function and its
// module-internal static callees, flagging constructs that allocate (or
// that the analyzer cannot prove allocation-free):
//
//   - make / new / slice, map and &-taken composite literals
//   - append (growth may allocate; pooled amortized growth needs an
//     //ringlint:allow alloc annotation at the site)
//   - string concatenation and []byte/[]rune <-> string conversions
//   - fmt.* calls
//   - conversions and assignments that box a concrete value into an
//     interface
//   - dynamic calls (interface methods, func values, closures) and
//     calls into stdlib packages outside the known-clean allowlist
//     (sync/atomic, math, math/bits, cmp) — not provably allocation-free
//   - go statements and defers
//
// It returns the findings plus the sorted names of the marked roots
// (for ringlint -list).
func analyzeNoalloc(l *Loader, pkgs []*Package, ann *Annotations) ([]Finding, []string) {
	w := &noallocWalker{
		l:       l,
		decls:   map[*types.Func]funcDecl{},
		visited: map[*types.Func]bool{},
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					w.decls[obj] = funcDecl{fd: fd, pkg: p}
				}
			}
		}
	}
	var roots []string
	for obj := range ann.NoallocRoots() {
		roots = append(roots, obj.FullName())
	}
	sort.Strings(roots)
	// Walk in deterministic order so finding order is stable run-to-run.
	ordered := make([]*types.Func, 0, len(ann.NoallocRoots()))
	for obj := range ann.NoallocRoots() {
		ordered = append(ordered, obj)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].FullName() < ordered[j].FullName() })
	for _, obj := range ordered {
		w.walk(obj, obj.FullName())
	}
	return w.findings, roots
}

type funcDecl struct {
	fd  *ast.FuncDecl
	pkg *Package
}

type noallocWalker struct {
	l        *Loader
	decls    map[*types.Func]funcDecl
	visited  map[*types.Func]bool
	findings []Finding
}

// allocCleanStdlib are stdlib packages whose exported call surface is
// known not to allocate on the paths this repo uses.  cmp's Compare,
// Less and Or are inlined comparisons of ordered values (the variadic
// Or's argument slice stays on the stack).
var allocCleanStdlib = map[string]bool{
	"cmp":         true,
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
}

func (w *noallocWalker) report(p *Package, pos token.Pos, msg, root string) {
	w.findings = append(w.findings, Finding{
		Pos:      w.l.fset.Position(pos),
		Analyzer: "noalloc",
		Rule:     "alloc",
		Msg:      msg + " (in noalloc path rooted at " + root + ")",
	})
}

func (w *noallocWalker) walk(obj *types.Func, root string) {
	if w.visited[obj] {
		return
	}
	w.visited[obj] = true
	d, ok := w.decls[obj]
	if !ok || d.fd.Body == nil {
		return
	}
	p := d.pkg
	info := p.Info
	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			w.report(p, x.Pos(), "go statement allocates a goroutine", root)
			return false
		case *ast.DeferStmt:
			w.report(p, x.Pos(), "defer may allocate its frame", root)
			return false
		case *ast.FuncLit:
			w.report(p, x.Pos(), "func literal may allocate a closure", root)
			return false
		case *ast.CompositeLit:
			w.compositeLit(p, x, root, false)
			return true
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := x.X.(*ast.CompositeLit); ok {
					w.compositeLit(p, cl, root, true)
					ast.Inspect(cl, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok {
							w.call(p, call, root)
						}
						return true
					})
					return false
				}
			}
			return true
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info, x.X) {
				w.report(p, x.Pos(), "string concatenation allocates", root)
			}
			return true
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(info, x.Lhs[0]) {
				w.report(p, x.Pos(), "string += allocates", root)
			}
			w.interfaceAssign(p, x, root)
			return true
		case *ast.CallExpr:
			w.call(p, x, root)
			return true
		}
		return true
	}
	ast.Inspect(d.fd.Body, inspect)
}

func (w *noallocWalker) compositeLit(p *Package, cl *ast.CompositeLit, root string, addressed bool) {
	tv, ok := p.Info.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		w.report(p, cl.Pos(), "slice literal allocates", root)
	case *types.Map:
		w.report(p, cl.Pos(), "map literal allocates", root)
	default:
		if addressed {
			w.report(p, cl.Pos(), "&composite literal may escape and allocate", root)
		}
	}
}

// interfaceAssign flags assignments whose LHS is interface-typed and
// RHS concrete (boxing).
func (w *noallocWalker) interfaceAssign(p *Package, st *ast.AssignStmt, root string) {
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i := range st.Lhs {
		lt, ok := p.Info.Types[st.Lhs[i]]
		if !ok && st.Tok == token.DEFINE {
			if id, isID := st.Lhs[i].(*ast.Ident); isID {
				if obj, isVar := p.Info.Defs[id].(*types.Var); isVar {
					lt = types.TypeAndValue{Type: obj.Type()}
					ok = true
				}
			}
		}
		if !ok || lt.Type == nil || !types.IsInterface(lt.Type) {
			continue
		}
		rt, rok := p.Info.Types[st.Rhs[i]]
		if !rok || rt.Type == nil || types.IsInterface(rt.Type) {
			continue
		}
		if rt.IsNil() {
			continue
		}
		w.report(p, st.Rhs[i].Pos(), "assignment boxes a concrete value into an interface", root)
	}
}

func (w *noallocWalker) call(p *Package, call *ast.CallExpr, root string) {
	info := p.Info
	// Conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) {
			w.report(p, call.Pos(), "conversion boxes a concrete value into an interface", root)
			return
		}
		if len(call.Args) == 1 {
			at, aok := info.Types[call.Args[0]]
			if aok && at.Type != nil {
				toStr := isStringUnderlying(tv.Type)
				fromStr := isStringUnderlying(at.Type)
				_, toSlice := tv.Type.Underlying().(*types.Slice)
				_, fromSlice := at.Type.Underlying().(*types.Slice)
				if (toStr && fromSlice) || (fromStr && toSlice) {
					w.report(p, call.Pos(), "string<->slice conversion allocates", root)
				}
			}
		}
		return
	}
	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				w.report(p, call.Pos(), "make allocates", root)
			case "new":
				w.report(p, call.Pos(), "new allocates", root)
			case "append":
				w.report(p, call.Pos(), "append may grow its backing array", root)
			}
			return
		}
	}
	// Resolve a static callee.
	var callee *types.Func
	var viaInterface bool
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if selObj, ok := info.Selections[fun]; ok {
			callee, _ = selObj.Obj().(*types.Func)
			if _, recvIsIface := selObj.Recv().Underlying().(*types.Interface); recvIsIface {
				viaInterface = true
			}
		} else {
			// Package-qualified call.
			callee, _ = info.Uses[fun.Sel].(*types.Func)
		}
	}
	if callee == nil {
		w.report(p, call.Pos(), "dynamic call (func value) is not provably allocation-free", root)
		return
	}
	if viaInterface {
		w.report(p, call.Pos(), "call through interface "+callee.Name()+" is not provably allocation-free", root)
		return
	}
	pkg := callee.Pkg()
	if pkg == nil {
		return // builtin-like (error.Error on universe scope etc.)
	}
	if pkg.Path() == w.l.Config.Module || strings.HasPrefix(pkg.Path(), w.l.Config.Module+"/") {
		w.walk(callee, root)
		return
	}
	if strings.HasPrefix(pkg.Path(), "fmt") {
		w.report(p, call.Pos(), "fmt."+callee.Name()+" allocates (boxes arguments)", root)
		return
	}
	if !allocCleanStdlib[pkg.Path()] {
		w.report(p, call.Pos(), "call into "+pkg.Path()+" is not provably allocation-free", root)
	}
}

func isStringUnderlying(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
