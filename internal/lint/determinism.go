package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// analyzeDeterminism enforces the determinism rules:
//
//   - in kernel-classified code (packages in Config.KernelPackages plus
//     files in Config.KernelFiles): no time.Now/time.Since, no draws
//     from the global math/rand source;
//   - everywhere in the module: `range` over a map type is forbidden
//     unless the loop body is provably order-insensitive (see
//     orderInsensitive) or carries a //ringlint:allow maporder.
//
// These are the invariants behind hash-verified journal replay and
// Simulate tables bit-identical at any worker count: one
// nondeterministic iteration in a kernel or output path and replicas
// diverge.
func analyzeDeterminism(l *Loader, pkgs []*Package) []Finding {
	var out []Finding
	for _, p := range pkgs {
		for _, file := range p.Files {
			kernel := p.Kernel || l.Config.kernelFile(l.relFile(file.Pos()))
			v := &detVisitor{l: l, p: p, kernel: kernel}
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				v.block(fd.Body.List)
			}
			out = append(out, v.findings...)
		}
	}
	return out
}

type detVisitor struct {
	l        *Loader
	p        *Package
	kernel   bool
	findings []Finding
}

func (v *detVisitor) report(pos token.Pos, rule, msg string) {
	v.findings = append(v.findings, Finding{
		Pos:      v.l.fset.Position(pos),
		Analyzer: "determinism",
		Rule:     rule,
		Msg:      msg,
	})
}

// block scans a statement list: kernel time/rand violations anywhere in
// each statement, plus the map-range check with look-ahead at the
// statements that follow (for the append-then-sort idiom).
func (v *detVisitor) block(stmts []ast.Stmt) {
	for i, s := range stmts {
		v.stmt(s, stmts[i+1:])
	}
}

func (v *detVisitor) stmt(s ast.Stmt, rest []ast.Stmt) {
	if v.kernel {
		v.scanKernelCalls(s)
	}
	switch st := s.(type) {
	case *ast.RangeStmt:
		if isMapType(v.p.Info, st.X) && !v.orderInsensitive(st, rest) {
			v.report(st.Pos(), "maporder",
				"iteration over map "+exprString(st.X)+" is order-nondeterministic and the loop body is not provably order-insensitive (sort the keys, or annotate //ringlint:allow maporder <reason>)")
		}
		if st.Body != nil {
			v.block(st.Body.List)
		}
	case *ast.BlockStmt:
		v.block(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			v.stmt(st.Init, nil)
		}
		v.block(st.Body.List)
		if st.Else != nil {
			v.stmt(st.Else, nil)
		}
	case *ast.ForStmt:
		if st.Body != nil {
			v.block(st.Body.List)
		}
	case *ast.SwitchStmt:
		v.block(st.Body.List)
	case *ast.TypeSwitchStmt:
		v.block(st.Body.List)
	case *ast.SelectStmt:
		v.block(st.Body.List)
	case *ast.CaseClause:
		v.block(st.Body)
	case *ast.CommClause:
		v.block(st.Body)
	case *ast.LabeledStmt:
		v.stmt(st.Stmt, rest)
	case *ast.GoStmt, *ast.DeferStmt, *ast.ExprStmt, *ast.AssignStmt, *ast.DeclStmt, *ast.ReturnStmt, *ast.SendStmt:
		// Function literals nested in any statement still need scanning
		// for map ranges.
		ast.Inspect(s, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				v.block(fl.Body.List)
				return false
			}
			return true
		})
	}
}

// scanKernelCalls flags time.Now/time.Since and global math/rand draws
// in the subtree of one statement (without descending into nested
// statements twice: only call expressions matter here, so a plain
// Inspect is fine — duplicate positions are deduplicated by the allow
// index being line-based and findings being per-call-site).
func (v *detVisitor) scanKernelCalls(s ast.Stmt) {
	switch s.(type) {
	// Composite statements are visited member-by-member via stmt(); only
	// scan leaves so each call site is reported once.
	case *ast.RangeStmt, *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt,
		*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt,
		*ast.CaseClause, *ast.CommClause, *ast.LabeledStmt:
		switch st := s.(type) {
		case *ast.RangeStmt:
			v.scanKernelExpr(st.X)
		case *ast.IfStmt:
			v.scanKernelExpr(st.Cond)
		case *ast.ForStmt:
			v.scanKernelExpr(st.Cond)
		case *ast.SwitchStmt:
			v.scanKernelExpr(st.Tag)
		}
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // the closure body is scanned via stmt()
		}
		if e, ok := n.(ast.Expr); ok {
			v.kernelCall(e)
		}
		return true
	})
}

func (v *detVisitor) scanKernelExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if x, ok := n.(ast.Expr); ok {
			v.kernelCall(x)
		}
		return true
	})
}

func (v *detVisitor) kernelCall(e ast.Expr) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkg := selectorPackage(v.p.Info, sel)
	switch pkg {
	case "time":
		if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
			v.report(call.Pos(), "time",
				"time."+sel.Sel.Name+" in kernel code: kernels must be wall-clock free (hash-verified replay; annotate //ringlint:allow time <reason> for trace-only timing)")
		}
	case "math/rand", "math/rand/v2":
		if !isRandConstructor(sel.Sel.Name) {
			v.report(call.Pos(), "rand",
				"global math/rand."+sel.Sel.Name+" in kernel code: draw from an explicitly seeded rand.New source instead")
		}
	}
}

// isRandConstructor reports names of math/rand functions that build a
// seeded source/generator rather than drawing from the global one.
func isRandConstructor(name string) bool {
	switch name {
	case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
		return true
	}
	return false
}

// selectorPackage returns the import path when sel.X names a package,
// else "".
func selectorPackage(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

func isMapType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	}
	return "expression"
}

// ----- order-insensitivity prover -----------------------------------------

// orderInsensitive reports whether a map-range loop provably produces
// the same result for every iteration order.  Two shapes are accepted:
//
//  1. Pure accumulation: every statement in the body is commutative —
//     map-index assignment (m[k] = v, m[k] += v, ...), numeric
//     compound accumulation (x += v, x |= v, ...), x++/x--,
//     delete(m, k), continue, constant/loop-var-free plain assignment
//     (found = true), or an if/nested-loop over those forms.
//
//  2. Append-then-sort: the body (optionally under if-guards) appends
//     loop keys/values to local slices, and every such slice is passed
//     to sort.* / slices.Sort* in the statements following the loop.
//
// Anything else — calls, early exits, order-dependent writes — is not
// provable and needs an explicit //ringlint:allow maporder.
func (v *detVisitor) orderInsensitive(rs *ast.RangeStmt, rest []ast.Stmt) bool {
	if existentialLoop(v.p.Info, rs.Body.List) {
		return true
	}
	pr := &orderProver{info: v.p.Info}
	if !pr.blockOK(rs.Body.List) {
		return false
	}
	if len(pr.appended) == 0 {
		return true
	}
	// Every appended-to slice must be sorted after the loop.
	sorted := map[string]bool{}
	for _, s := range rest {
		collectSortCalls(v.p.Info, s, sorted)
	}
	ok := true
	for path := range pr.appended {
		if !sorted[path] {
			ok = false
		}
	}
	return ok
}

// existentialLoop matches search loops whose only effects are constant:
// optional pure `:=` statements followed by a single trailing if (no
// else, call-free condition) whose body sets constants and/or exits via
// break or a constant return.  Whichever element triggers the exit, the
// observable result is the same — `for e := range a { if b[e] { return
// true } }` and found-flag scans qualify.
func existentialLoop(info *types.Info, stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	for _, s := range stmts[:len(stmts)-1] {
		as, ok := s.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return false
		}
		for _, rhs := range as.Rhs {
			if containsCall(info, rhs) {
				return false
			}
		}
	}
	ifs, ok := stmts[len(stmts)-1].(*ast.IfStmt)
	if !ok || ifs.Else != nil || containsCall(info, ifs.Cond) {
		return false
	}
	if ifs.Init != nil {
		if as, ok := ifs.Init.(*ast.AssignStmt); !ok || as.Tok != token.DEFINE {
			return false
		} else {
			for _, rhs := range as.Rhs {
				if containsCall(info, rhs) {
					return false
				}
			}
		}
	}
	for _, s := range ifs.Body.List {
		switch st := s.(type) {
		case *ast.AssignStmt:
			if st.Tok != token.ASSIGN {
				return false
			}
			for _, lhs := range st.Lhs {
				if !lvalueOK(info, lhs) {
					return false
				}
			}
			for _, rhs := range st.Rhs {
				if !constantExpr(info, rhs) {
					return false
				}
			}
		case *ast.BranchStmt:
			if st.Tok != token.BREAK {
				return false
			}
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if !constantExpr(info, r) {
					return false
				}
			}
		default:
			return false
		}
	}
	return true
}

// constantExpr reports whether e is a compile-time constant (or nil).
func constantExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	return tv.Value != nil || tv.IsNil()
}

type orderProver struct {
	info     *types.Info
	appended map[string]bool
}

func (pr *orderProver) blockOK(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !pr.stmtOK(s) {
			return false
		}
	}
	return true
}

func (pr *orderProver) stmtOK(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.AssignStmt:
		return pr.assignOK(st)
	case *ast.IncDecStmt:
		return lvalueOK(pr.info, st.X)
	case *ast.ExprStmt:
		// delete(m, k) is commutative removal.
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && pr.info.Uses[id] == nil {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := pr.info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return true
				}
			}
		}
		return false
	case *ast.BranchStmt:
		return st.Tok == token.CONTINUE
	case *ast.IfStmt:
		// Max/min accumulation: `if x > acc { acc = x }` ends at the
		// same extremum in any order.
		if minmaxOK(pr.info, st) {
			return true
		}
		// Guard conditions are treated as pure; the branches must
		// recursively qualify.  (A side-effecting condition defeats the
		// prover's soundness — that is the documented caveat.)
		if st.Init != nil && !pr.stmtOK(st.Init) {
			return false
		}
		if !pr.blockOK(st.Body.List) {
			return false
		}
		if st.Else != nil {
			return pr.stmtOK(st.Else)
		}
		return true
	case *ast.BlockStmt:
		return pr.blockOK(st.List)
	case *ast.RangeStmt:
		// A nested range over a non-map (the map value, typically a
		// slice) is fine if its body qualifies; a nested map range must
		// qualify on its own (no look-ahead inside the outer body).
		if isMapType(pr.info, st.X) {
			inner := &orderProver{info: pr.info, appended: pr.appended}
			ok := inner.blockOK(st.Body.List)
			pr.appended = inner.appended
			return ok
		}
		return pr.blockOK(st.Body.List)
	case *ast.ForStmt:
		if st.Init != nil && !pr.stmtOK(st.Init) {
			return false
		}
		if st.Post != nil && !pr.stmtOK(st.Post) {
			return false
		}
		return pr.blockOK(st.Body.List)
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				return false
			}
			for _, val := range vs.Values {
				if containsCall(pr.info, val) {
					return false
				}
			}
		}
		return true
	}
	return false
}

func (pr *orderProver) assignOK(st *ast.AssignStmt) bool {
	// Form A: append-to-lvalue, x = append(x, ...) (x may be a
	// selector chain like st.Faulty); validated against a sort call
	// after the loop by the caller.
	if st.Tok == token.ASSIGN && len(st.Lhs) == 1 && len(st.Rhs) == 1 {
		if path, ok := appendTarget(pr.info, st.Lhs[0], st.Rhs[0]); ok {
			if pr.appended == nil {
				pr.appended = map[string]bool{}
			}
			pr.appended[path] = true
			return true
		}
	}
	// Form B: every LHS is a map index — keyed writes commute across
	// distinct keys, and a map range visits each key once.
	allMapIndex := len(st.Lhs) > 0
	for _, lhs := range st.Lhs {
		if !isMapIndex(pr.info, lhs) {
			allMapIndex = false
			break
		}
	}
	if allMapIndex {
		return true
	}
	// Form C: numeric compound accumulation on a variable.
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return false
		}
		if !lvalueOK(pr.info, st.Lhs[0]) {
			return false
		}
		if isStringType(pr.info, st.Lhs[0]) {
			return false // string += is concatenation: order-sensitive
		}
		return !containsCall(pr.info, st.Rhs[0])
	case token.DEFINE:
		// `:=` creates fresh per-iteration locals: no cross-iteration
		// state is written, so only side effects (calls) can leak order.
		for _, rhs := range st.Rhs {
			if containsCall(pr.info, rhs) {
				return false
			}
		}
		return true
	case token.ASSIGN:
		// Plain assignment is idempotent across iterations only when the
		// RHS mentions neither the loop variables nor any call: the same
		// value lands no matter which iteration writes last.
		for _, rhs := range st.Rhs {
			if containsCall(pr.info, rhs) || mentionsLocal(pr.info, rhs) {
				return false
			}
		}
		for _, lhs := range st.Lhs {
			if !lvalueOK(pr.info, lhs) {
				return false
			}
		}
		return true
	}
	return false
}

// minmaxOK matches `if x OP acc { acc = x }` for a comparison OP — a
// commutative extremum accumulation.
func minmaxOK(info *types.Info, st *ast.IfStmt) bool {
	if st.Init != nil || st.Else != nil || len(st.Body.List) != 1 {
		return false
	}
	cond, ok := st.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case token.GTR, token.LSS, token.GEQ, token.LEQ:
	default:
		return false
	}
	if containsCall(info, cond.X) || containsCall(info, cond.Y) {
		return false
	}
	as, ok := st.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	if !lvalueOK(info, as.Lhs[0]) || containsCall(info, as.Rhs[0]) {
		return false
	}
	lhs, rhs := types.ExprString(as.Lhs[0]), types.ExprString(as.Rhs[0])
	cx, cy := types.ExprString(cond.X), types.ExprString(cond.Y)
	return (cx == rhs && cy == lhs) || (cx == lhs && cy == rhs)
}

// lvalueOK accepts identifiers and field selectors as accumulation
// targets (not indexed slots, whose index could depend on order).
func lvalueOK(info *types.Info, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return lvalueOK(info, x.X)
	}
	return false
}

func isMapIndex(info *types.Info, e ast.Expr) bool {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	return isMapType(info, ix.X)
}

func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// containsCall reports whether e contains any call that is not a type
// conversion or len/cap/min/max.
func containsCall(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap", "min", "max":
					return true
				}
			}
		}
		found = true
		return false
	})
	return found
}

// mentionsLocal reports whether e references any non-package-level,
// non-constant identifier (conservative stand-in for "depends on the
// loop iteration").
func mentionsLocal(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		switch o := obj.(type) {
		case *types.Var:
			if o.Parent() != nil && o.Parent() != o.Pkg().Scope() && !o.IsField() {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// lvaluePath canonicalizes an ident-or-selector chain (x, x.f, x.f.g)
// into an identity string rooted at the variable's object, so the same
// target matches between the append inside the loop and the sort after
// it.  Shadowing is safe: the root is keyed by object identity, not
// name.
func lvaluePath(info *types.Info, e ast.Expr) (string, bool) {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return "", false
		}
		return fmt.Sprintf("%p", obj), true
	case *ast.SelectorExpr:
		base, ok := lvaluePath(info, x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	}
	return "", false
}

// appendTarget matches `x = append(x, ...)` for an ident-or-selector
// target x, returning its canonical path.
func appendTarget(info *types.Info, lhs, rhs ast.Expr) (string, bool) {
	lp, ok := lvaluePath(info, lhs)
	if !ok {
		return "", false
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return "", false
	}
	ap, ok := lvaluePath(info, call.Args[0])
	if !ok || ap != lp {
		return "", false
	}
	return lp, true
}

// collectSortCalls records lvalue paths passed to a recognized sorting
// function anywhere in s.
func collectSortCalls(info *types.Info, s ast.Stmt, out map[string]bool) {
	ast.Inspect(s, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		switch selectorPackage(info, sel) {
		case "sort":
			switch sel.Sel.Name {
			case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			default:
				return true
			}
		case "slices":
			switch sel.Sel.Name {
			case "Sort", "SortFunc", "SortStableFunc":
			default:
				return true
			}
		default:
			return true
		}
		arg := call.Args[0]
		// sort.Sort(byName(x)) wraps the slice in a conversion.
		if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
			if tv, ok := info.Types[conv.Fun]; ok && tv.IsType() {
				arg = conv.Args[0]
			}
		}
		if path, ok := lvaluePath(info, arg); ok {
			out[path] = true
		}
		return true
	})
}
