package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the intraprocedural dataflow machinery the flow-aware
// checks share: function-literal binding resolution (the hoisted closure
// idiom `body := func(lo, hi int) {…}; kern.For(n, g, body)`) and the
// chunk-purity analysis that classifies writes inside kern bodies.

// litBindings collects, per enclosing declaration, local variables bound
// exactly once to a function literal (`f := func(…) {…}` or
// `var f = func(…) {…}`) and never reassigned — the hoisted-closure idiom.
// Variables assigned more than once map to nil.
func litBindings(p *Pass, body ast.Node) map[*types.Var]*ast.FuncLit {
	out := make(map[*types.Var]*ast.FuncLit)
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		v, ok := p.Info.Defs[id].(*types.Var)
		if !ok {
			v, ok = p.Info.Uses[id].(*types.Var)
			if !ok {
				return
			}
		}
		lit, isLit := unparen(rhs).(*ast.FuncLit)
		if prev, seen := out[v]; seen && prev != lit {
			out[v] = nil // reassigned: unresolvable
			return
		}
		if isLit {
			out[v] = lit
		} else {
			out[v] = nil
		}
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					bind(x.Lhs[i], x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i := range x.Names {
					bind(x.Names[i], x.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// resolveBodyArg resolves the function-body argument of a kern entry call to
// its literal: either the literal itself or a once-bound local variable.
func resolveBodyArg(p *Pass, arg ast.Expr, bindings map[*types.Var]*ast.FuncLit) *ast.FuncLit {
	switch a := unparen(arg).(type) {
	case *ast.FuncLit:
		return a
	case *ast.Ident:
		if v, ok := p.Info.Uses[a].(*types.Var); ok {
			return bindings[v]
		}
	}
	return nil
}

// kernBody is the chunk-purity context for one closure passed to
// kern.For/ForChunks/Sum. The contract (kern package doc): a body may write
// only locations owned by its chunk. The static approximation proved here:
//
//   - a variable is LOCAL if declared inside the literal (chunk-private);
//   - a local is CHUNK-PURE if every assignment to it reads only chunk
//     parameters, other chunk-pure locals, and captured state the body never
//     writes (loop-invariant reads);
//   - it is PARAM-ROOTED if some assignment transitively reads a chunk
//     parameter — a constant index is chunk-pure but NOT param-rooted, and
//     two chunks writing out[0] is exactly the race this distinction flags;
//   - a write to captured state is accepted only through an index (or slice
//     bound) chain whose indices are all chunk-pure with at least one
//     param-rooted — `dst[i]` for i walked from lo to hi passes, `acc`,
//     `out[0]` and `shared[k]` for captured k do not.
//
// Known imprecision (accepted, documented in DESIGN.md §7): indices derived
// from captured lookup tables (`scol[start[r]]`) are treated as chunk-pure
// because start is never written by the body; actual disjointness of such
// segments (start monotone) is the caller's obligation, as it is at runtime.
type kernBody struct {
	p   *Pass
	lit *ast.FuncLit

	params map[*types.Var]bool // the chunk parameters (lo, hi[, c])
	local  map[*types.Var]bool // declared inside the literal
	// written/writtenField record write roots at first-selector granularity:
	// `s.adjBuf[i] = v` marks (s, "adjBuf"), leaving reads of s.capOff pure —
	// scratch structs bundle many independent buffers and field-insensitive
	// tracking would poison them all. A write with no selector marks the
	// whole variable.
	written      map[*types.Var]bool
	writtenField map[*types.Var]map[string]bool
	impure       map[*types.Var]bool // local whose value may depend on non-chunk mutable state
	rooted       map[*types.Var]bool // local transitively derived from a chunk parameter
}

func newKernBody(p *Pass, lit *ast.FuncLit) *kernBody {
	kb := &kernBody{
		p:            p,
		lit:          lit,
		params:       make(map[*types.Var]bool),
		local:        make(map[*types.Var]bool),
		written:      make(map[*types.Var]bool),
		writtenField: make(map[*types.Var]map[string]bool),
		impure:       make(map[*types.Var]bool),
		rooted:       make(map[*types.Var]bool),
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := p.Info.Defs[name].(*types.Var); ok {
				kb.params[v] = true
				kb.rooted[v] = true
			}
		}
	}
	// Locals: every variable defined inside the literal.
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if v, ok := p.Info.Defs[id].(*types.Var); ok {
				kb.local[v] = true
			}
		}
		return true
	})
	// Written roots.
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				kb.markWritten(lhs)
			}
		case *ast.IncDecStmt:
			kb.markWritten(x.X)
		case *ast.RangeStmt:
			kb.markWritten(x.Key)
			kb.markWritten(x.Value)
		}
		return true
	})
	kb.solve()
	return kb
}

func (kb *kernBody) markWritten(e ast.Expr) {
	if e == nil {
		return
	}
	root, field := splitRootField(e)
	if root == nil {
		return
	}
	v, ok := kb.p.Info.Defs[root].(*types.Var)
	if !ok {
		v, ok = kb.p.Info.Uses[root].(*types.Var)
	}
	if !ok {
		return
	}
	if field == "" {
		kb.written[v] = true
		return
	}
	if kb.writtenField[v] == nil {
		kb.writtenField[v] = make(map[string]bool)
	}
	kb.writtenField[v][field] = true
}

// splitRootField walks an lvalue chain to its base identifier and the field
// selected directly on it ("" when the root is used without a selector):
// `s.adjBuf[i]` → (s, "adjBuf"), `x[i]` → (x, "").
func splitRootField(e ast.Expr) (*ast.Ident, string) {
	field := ""
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			field = x.Sel.Name
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x, field
		default:
			return nil, ""
		}
	}
}

// solve iterates local impurity/rootedness to a fixed point over every
// assignment-like binding in the body.
func (kb *kernBody) solve() {
	p := kb.p
	visit := func(lhs, rhs ast.Expr) bool {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			return false
		}
		v, ok := p.Info.Defs[id].(*types.Var)
		if !ok {
			v, ok = p.Info.Uses[id].(*types.Var)
		}
		if !ok || !kb.local[v] {
			return false
		}
		changed := false
		if rhs != nil && !kb.impure[v] && !kb.exprChunkPure(rhs) {
			kb.impure[v] = true
			changed = true
		}
		if rhs != nil && !kb.rooted[v] && kb.exprParamRooted(rhs) {
			kb.rooted[v] = true
			changed = true
		}
		return changed
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(kb.lit.Body, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for i := range x.Lhs {
						if visit(x.Lhs[i], x.Rhs[i]) {
							changed = true
						}
					}
				} else {
					// Tuple assignment from one call: purity unknown.
					for _, lhs := range x.Lhs {
						if id, ok := unparen(lhs).(*ast.Ident); ok {
							if v, ok := p.Info.Defs[id].(*types.Var); ok && kb.local[v] && !kb.impure[v] {
								kb.impure[v] = true
								changed = true
							}
						}
					}
				}
			case *ast.RangeStmt:
				pure := kb.exprChunkPure(x.X)
				root := kb.exprParamRooted(x.X)
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if e == nil {
						continue
					}
					if id, ok := unparen(e).(*ast.Ident); ok {
						if v, ok := p.Info.Defs[id].(*types.Var); ok && kb.local[v] {
							if !pure && !kb.impure[v] {
								kb.impure[v] = true
								changed = true
							}
							if root && !kb.rooted[v] {
								kb.rooted[v] = true
								changed = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					var rhs ast.Expr
					if i < len(x.Values) {
						rhs = x.Values[i]
					}
					if visit(name, rhs) {
						changed = true
					}
				}
			}
			return true
		})
	}
}

// exprChunkPure reports whether e reads only chunk parameters, unwritten
// captured state, and chunk-pure locals. Calls other than len/cap/min/max
// and conversions poison purity (their results may observe shared state).
// Captured reads through a selector are checked at field granularity:
// `s.capOff[c]` stays pure while the body writes only s.adjBuf.
func (kb *kernBody) exprChunkPure(e ast.Expr) bool {
	ok := true
	// selField maps the base identifier of each first-level selector to the
	// field it selects (pre-order: recorded before the ident is visited).
	selField := make(map[*ast.Ident]string)
	ast.Inspect(e, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SelectorExpr:
			if id, isIdent := unparen(x.X).(*ast.Ident); isIdent {
				selField[id] = x.Sel.Name
			}
			return true
		case *ast.CallExpr:
			switch fun := unparen(x.Fun).(type) {
			case *ast.Ident:
				switch fun.Name {
				case "len", "cap", "min", "max":
					return true
				}
				if _, isType := kb.p.Info.Uses[fun].(*types.TypeName); isType {
					return true // conversion
				}
			case *ast.SelectorExpr:
				if _, isType := kb.p.Info.Uses[fun.Sel].(*types.TypeName); isType {
					return true
				}
			}
			ok = false
			return false
		case *ast.Ident:
			v, isVar := kb.p.Info.Uses[x].(*types.Var)
			if !isVar {
				return true
			}
			switch {
			case kb.params[v]:
			case kb.local[v]:
				if kb.impure[v] {
					ok = false
					return false
				}
			default: // captured: pure only if the body never writes what it reads
				if kb.written[v] {
					ok = false
					return false
				}
				if f, viaSel := selField[x]; viaSel {
					if kb.writtenField[v][f] {
						ok = false
						return false
					}
				} else if len(kb.writtenField[v]) > 0 {
					// Bare read of a var with written fields: conservative.
					ok = false
					return false
				}
			}
		}
		return true
	})
	return ok
}

// exprParamRooted reports whether e transitively reads a chunk parameter.
func (kb *kernBody) exprParamRooted(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if v, ok := kb.p.Info.Uses[id].(*types.Var); ok && kb.rooted[v] {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// varOf resolves an identifier expression to its variable object (nil
// otherwise).
func varOf(info *types.Info, e ast.Expr) *types.Var {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Defs[id].(*types.Var)
	return v
}

// isCapturedBy reports whether v is declared outside the literal (a captured
// or package-level variable from the body's point of view).
func isCapturedBy(lit *ast.FuncLit, v *types.Var) bool {
	return v != nil && !(v.Pos() >= lit.Pos() && v.Pos() <= lit.End())
}

// writeViolation classifies a write target inside a kern body. It returns a
// non-empty problem description when the write breaks the chunk-ownership
// contract.
func (kb *kernBody) writeViolation(lhs ast.Expr) string {
	root := rootIdent(lhs)
	if root == nil {
		return ""
	}
	v := varOf(kb.p.Info, lhs2root(lhs))
	if v == nil || kb.params[v] || kb.local[v] {
		return "" // chunk-private
	}
	// Captured root: acceptable only as an element write whose index chain is
	// chunk-pure with at least one param-rooted index.
	sawIndex := false
	sawRooted := false
	mapWrite := false
	e := lhs
walk:
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			sawIndex = true
			if t := kb.p.TypeOf(x.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					mapWrite = true
				}
			}
			if !kb.exprChunkPure(x.Index) {
				return "index not derived from the chunk"
			}
			if kb.exprParamRooted(x.Index) {
				sawRooted = true
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			break walk
		}
	}
	switch {
	case mapWrite:
		return "map write (maps are not chunk-partitionable)"
	case !sawIndex:
		return "write to captured variable " + v.Name()
	case !sawRooted:
		return "captured " + v.Name() + " written at an index not derived from the chunk"
	}
	return ""
}

// lhs2root returns the base expression of an lvalue chain (for varOf).
func lhs2root(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

// sliceBoundsViolation checks the dst argument of a copy() call inside a
// kern body like a write target: bounds must be chunk-pure and param-rooted.
func (kb *kernBody) sliceBoundsViolation(dst ast.Expr) string {
	if se, ok := unparen(dst).(*ast.SliceExpr); ok {
		rootedBound := false
		for _, b := range []ast.Expr{se.Low, se.High, se.Max} {
			if b == nil {
				continue
			}
			if !kb.exprChunkPure(b) {
				return "copy destination bounds not derived from the chunk"
			}
			if kb.exprParamRooted(b) {
				rootedBound = true
			}
		}
		v := varOf(kb.p.Info, lhs2root(se.X))
		if v != nil && !kb.params[v] && !kb.local[v] && !rootedBound {
			return "copy into captured " + v.Name() + " without chunk-derived bounds"
		}
		return ""
	}
	return kb.writeViolation(dst)
}

// accumAssign reports whether the statement accumulates into lhs: an
// op-assign (+=, -=, *=, /=) or `x = <expr reading x>`.
func accumAssign(info *types.Info, as *ast.AssignStmt) (lhs ast.Expr, ok bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return as.Lhs[0], true
	case token.ASSIGN:
		v := varOf(info, as.Lhs[0])
		if v == nil {
			return nil, false
		}
		reads := false
		ast.Inspect(as.Rhs[0], func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				if w, _ := info.Uses[id].(*types.Var); w == v {
					reads = true
					return false
				}
			}
			return !reads
		})
		if reads {
			return as.Lhs[0], true
		}
	}
	return nil, false
}

// isFloatExpr reports whether e has floating-point type.
func isFloatExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
