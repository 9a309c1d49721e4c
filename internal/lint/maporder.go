package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// deterministicPkgs are the packages whose outputs feed the paper's
// reproducibility claims: partition vectors, coarse-graph weights, and
// migration decisions must be byte-identical run to run — and so must the
// vertex numbering and node slots that refine and forest hand out, which every
// later NodeID and local index is built on.
var deterministicPkgs = []string{
	"pared/internal/core",
	"pared/internal/graph",
	"pared/internal/partition",
	"pared/internal/pared",
	"pared/internal/refine",
	"pared/internal/forest",
}

// MapOrder flags `for … range` over a map inside the deterministic packages,
// unless the loop is provably order-insensitive (it only performs commutative
// integer accumulation or writes keyed by the iteration variables) or it
// follows the collect-keys-then-sort idiom.
var MapOrder = &Check{
	Name: "maporder",
	Run:  runMapOrder,
}

func runMapOrder(p *Pass) {
	if !p.InScope(deterministicPkgs...) {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if p.keysSortedAfter(fn, rs) || p.orderInsensitive(rs) {
					return true
				}
				p.Reportf(rs.For, "iteration over map %s in deterministic package %s: sort the keys first or make the loop body order-insensitive",
					types.TypeString(t, types.RelativeTo(p.Types)), p.Types.Name())
				return true
			})
		}
	}
}

// keysSortedAfter recognizes the canonical deterministic idiom: the loop body
// only appends the map key (or value) to a slice — possibly behind a filter
// on the iteration variables — and the enclosing function sorts that slice
// after the loop, with package sort or a slices.Sort* function.
func (p *Pass) keysSortedAfter(fn *ast.FuncDecl, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	stmt := rs.Body.List[0]
	if ifs, ok := stmt.(*ast.IfStmt); ok && ifs.Init == nil && ifs.Else == nil && len(ifs.Body.List) == 1 {
		// `if <filter on k, v> { xs = append(xs, k) }` — the filter cannot
		// depend on mutable state touched by the loop (the body is only the
		// append), so it is order-independent.
		vars := p.rangeVarObjects(rs)
		if p.dependsOnlyOn(ifs.Cond, func(v *types.Var) bool { return vars[v] }) {
			stmt = ifs.Body.List[0]
		}
	}
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	target, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
		return false
	}
	if len(call.Args) < 2 {
		return false
	}
	if first, ok := call.Args[0].(*ast.Ident); !ok || p.Info.Uses[first] != p.Info.Uses[target] {
		return false
	}
	// A sort call on the collected slice must follow the loop.
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pkg := p.PkgNameOf(id); pkg != "sort" && !(pkg == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort")) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && p.Info.Uses[id] == p.Info.Uses[target] {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

// orderInsensitive conservatively decides whether executing the loop body in
// any iteration order yields identical final state. Allowed statements:
//
//   - commutative integer accumulation (s += e, s++, …: exact, so reordering
//     cannot change the result; float accumulation stays flagged — rounding
//     makes it order-sensitive, which is precisely the bug class);
//   - writes and compound updates whose target location is keyed by the
//     iteration variables (iterations touch disjoint state);
//   - delete keyed by the iteration variables;
//   - control flow (if/continue/nested range) whose conditions and operands
//     depend only on the iteration variables and on state the loop never
//     writes.
func (p *Pass) orderInsensitive(rs *ast.RangeStmt) bool {
	a := &orderAnalysis{
		pass:    p,
		derived: p.rangeVarObjects(rs),
		written: make(map[*types.Var]bool),
	}
	// Pre-pass: everything the body assigns to is "written"; reads of such
	// state are order-dependent, reads of anything else are loop-invariant.
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				a.markWritten(lhs)
			}
		case *ast.IncDecStmt:
			a.markWritten(n.X)
		case *ast.RangeStmt:
			a.markWritten(n.Key)
			a.markWritten(n.Value)
		}
		return true
	})
	for _, s := range rs.Body.List {
		if !a.stmtOK(s) {
			return false
		}
	}
	return true
}

// rangeVarObjects returns the objects bound by the range clause.
func (p *Pass) rangeVarObjects(rs *ast.RangeStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if v, ok := p.Info.Defs[id].(*types.Var); ok {
				out[v] = true
			}
			if v, ok := p.Info.Uses[id].(*types.Var); ok {
				out[v] = true // `k = range m` (assignment form)
			}
		}
	}
	return out
}

// orderAnalysis carries the per-loop state of the order-insensitivity proof.
type orderAnalysis struct {
	pass *Pass
	// derived holds variables whose value is a function of the current
	// iteration's key/value (the range variables plus locals defined from
	// them).
	derived map[*types.Var]bool
	// written holds every variable the loop body assigns to.
	written map[*types.Var]bool
}

func (a *orderAnalysis) markWritten(e ast.Expr) {
	if e == nil {
		return
	}
	// Walk to the root identifier of an index/selector chain.
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			if v, ok := a.pass.Info.Defs[x].(*types.Var); ok {
				a.written[v] = true
			}
			if v, ok := a.pass.Info.Uses[x].(*types.Var); ok {
				a.written[v] = true
			}
			return
		default:
			return
		}
	}
}

// safe reports whether e reads only iteration-derived variables and state the
// loop never writes.
func (a *orderAnalysis) safe(e ast.Expr) bool {
	return a.pass.dependsOnlyOn(e, func(v *types.Var) bool {
		return a.derived[v] || !a.written[v]
	})
}

// keyed reports whether e is a pure function of the iteration-derived
// variables (suitable for addressing per-iteration state).
func (a *orderAnalysis) keyed(e ast.Expr) bool {
	return a.pass.dependsOnlyOn(e, func(v *types.Var) bool { return a.derived[v] })
}

// define adds variables bound by a := statement over safe right-hand sides to
// the derived set; reports whether the statement qualifies.
func (a *orderAnalysis) define(s *ast.AssignStmt) bool {
	if s.Tok != token.DEFINE {
		return false
	}
	for _, rhs := range s.Rhs {
		if !a.safe(rhs) {
			return false
		}
	}
	for _, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return false
		}
		if v, ok := a.pass.Info.Defs[id].(*types.Var); ok {
			a.derived[v] = true
		}
	}
	return true
}

func (a *orderAnalysis) stmtOK(s ast.Stmt) bool {
	p := a.pass
	switch s := s.(type) {
	case *ast.IncDecStmt:
		if p.isIntegerValued(s.X) {
			return true
		}
		if ix, ok := s.X.(*ast.IndexExpr); ok {
			return a.keyed(ix.Index)
		}
		return false
	case *ast.AssignStmt:
		if s.Tok == token.DEFINE {
			return a.define(s)
		}
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			if p.isIntegerValued(s.Lhs[0]) && a.safe(s.Rhs[0]) {
				return true
			}
			// Non-integer accumulation is fine only at per-iteration
			// locations (one update per key, so no reordering effect).
			if ix, ok := s.Lhs[0].(*ast.IndexExpr); ok {
				return a.keyed(ix.Index) && a.safe(s.Rhs[0])
			}
			return false
		case token.ASSIGN:
			ix, ok := s.Lhs[0].(*ast.IndexExpr)
			if !ok {
				return false
			}
			return a.keyed(ix.Index) && a.safe(s.Rhs[0])
		}
		return false
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if fun, ok := call.Fun.(*ast.Ident); ok && fun.Name == "delete" && len(call.Args) == 2 {
			return a.keyed(call.Args[1])
		}
		return false
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE // break/goto make order observable
	case *ast.IfStmt:
		if s.Init != nil {
			as, ok := s.Init.(*ast.AssignStmt)
			if !ok || !a.define(as) {
				return false
			}
		}
		if !a.safe(s.Cond) {
			return false
		}
		if !a.stmtOK(s.Body) {
			return false
		}
		return s.Else == nil || a.stmtOK(s.Else)
	case *ast.RangeStmt:
		// A nested range over iteration-derived, non-map data keeps the outer
		// proof valid; its variables become derived too.
		if !a.safe(s.X) {
			return false
		}
		if t := p.TypeOf(s.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return false // nested map range has its own order problem
			}
		}
		for v := range p.rangeVarObjects(s) {
			a.derived[v] = true
		}
		return a.stmtOK(s.Body)
	case *ast.BlockStmt:
		for _, b := range s.List {
			if !a.stmtOK(b) {
				return false
			}
		}
		return true
	}
	return false
}

// isIntegerValued reports whether e has integer type (order-exact under
// commutative accumulation, unlike floats).
func (p *Pass) isIntegerValued(e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// dependsOnlyOn reports whether every variable referenced by e satisfies
// allowed (constants, types, len/cap, and conversions always qualify; other
// calls never do — they may observe mutable state).
func (p *Pass) dependsOnlyOn(e ast.Expr, allowed func(*types.Var) bool) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "len" || fun.Name == "cap" {
					return true
				}
				if _, isType := p.Info.Uses[fun].(*types.TypeName); isType {
					return true
				}
			case *ast.SelectorExpr:
				if _, isType := p.Info.Uses[fun.Sel].(*types.TypeName); isType {
					return true
				}
			}
			ok = false
			return false
		case *ast.Ident:
			if v, isVar := p.Info.Uses[n].(*types.Var); isVar && !allowed(v) {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}
