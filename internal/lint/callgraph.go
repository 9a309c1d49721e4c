package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the whole-program context the flow-aware checks
// (kernpure, scratchalias, detfloat) share: an index of every
// declared function across the packages of one Run and a CHA-lite call graph
// over it. "CHA-lite" means:
//
//   - static calls (package functions, concrete methods) are resolved exactly
//     through go/types object identity — this works across packages because
//     the Loader memoizes type-checked packages, so a callee seen from two
//     packages is the same *types.Func;
//   - interface method calls resolve, class-hierarchy style, to every
//     declared method with the same name (no signature filtering — the
//     checks that consume these edges are conservative by design);
//   - calls through function-typed values are unresolved, EXCEPT function
//     literals bound once to a local variable (the hoisted-closure idiom of
//     internal/la), which the per-check resolvers track;
//   - statements inside function literals are attributed to the enclosing
//     declaration: a closure's effects belong to the function that wrote it.
//
// On top of the graph the builder computes transitive effect summaries —
// "this function (or something it calls) touches internal/par", "…writes
// package-level state" — each carrying a witness
// chain so diagnostics can print the call path that makes a finding real.

// Import paths of the audited concurrency layers. The flow-aware checks key
// their semantics off these two packages.
const (
	parPath  = "pared/internal/par"
	kernPath = "pared/internal/kern"
)

// kernEntryNames are the kern entry points that run a caller-supplied body on
// multiple goroutines; bodies handed to them carry the purity contract.
var kernEntryNames = map[string]bool{"For": true, "ForChunks": true, "Sum": true}

// Effect is one whole-program fact a function may have, directly or through
// anything it calls.
type Effect int

const (
	// EffPar: reaches any internal/par function or method (communication,
	// rank spawning, ordered printing) — forbidden inside kern bodies.
	EffPar Effect = iota
	// EffKern: reaches kern.For/ForChunks/Sum — kern does not nest.
	EffKern
	// EffConc: uses a raw concurrency primitive outside the audited packages.
	EffConc
	// EffGlobalWrite: writes a package-level variable.
	EffGlobalWrite
	// EffScratchGlobal: reads or writes a package-level *Scratch variable.
	EffScratchGlobal
	numEffects
)

// Trace is the witness for one effect on one function: either the direct
// fact (Via == nil, Desc describes it) or the first call edge on a chain that
// reaches it (Via is the callee to follow).
type Trace struct {
	Desc string      // display name of the ultimate fact ("par.(*Comm).Barrier", "package variable lintCounter")
	Via  *types.Func // next hop toward the fact; nil when this function has it directly
	Pos  token.Pos   // the direct fact or the call site of Via
}

// FuncNode is one call-graph node: a declared function or method, with every
// function literal in its body attributed to it.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	calls []callSite
	eff   [numEffects]*Trace

	// floatAccParams marks pointer-to-float parameters (by index) that the
	// function accumulates into (*p += v, *p = *p + v) directly or by passing
	// them on. Consumed by detfloat's interprocedural rule.
	floatAccParams map[int]bool
}

type callSite struct {
	pos    token.Pos
	callee *types.Func
}

// Program is the shared whole-program analysis context of one Run.
type Program struct {
	nodes  map[*types.Func]*FuncNode
	order  []*FuncNode            // nodes in file/position order (deterministic iteration)
	byName map[string][]*FuncNode // method name → implementations (CHA-lite interface edges)
}

// BuildProgram indexes the packages and computes the call graph and effect
// summaries. Packages not in pkgs (e.g. imports of a single fixture package)
// contribute no nodes; calls into them resolve only through the intrinsic
// facts below (par, kern entries), which is exactly what the
// fixture tests need.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		nodes:  make(map[*types.Func]*FuncNode),
		byName: make(map[string][]*FuncNode),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				prog.nodes[fn] = n
				prog.order = append(prog.order, n)
				if fd.Recv != nil {
					prog.byName[fn.Name()] = append(prog.byName[fn.Name()], n)
				}
			}
		}
	}
	sort.Slice(prog.order, func(i, j int) bool { return prog.order[i].Decl.Pos() < prog.order[j].Decl.Pos() })
	for _, n := range prog.order {
		prog.scanDirect(n)
	}
	prog.propagate()
	prog.propagateFloatAcc()
	return prog
}

// NodeOf returns the node of a declared function, or nil.
func (prog *Program) NodeOf(fn *types.Func) *FuncNode { return prog.nodes[fn] }

// calleeOf statically resolves a call expression to the *types.Func it
// invokes (nil for builtins, conversions, and calls through function values).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isCommMethod reports whether fn is a method on par.Comm, returning its name.
func isCommMethod(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != parPath {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if pt, ok := t.(*types.Pointer); ok {
		t = pt.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Comm" {
		return "", false
	}
	return fn.Name(), true
}

// isKernEntry reports whether fn is kern.For, kern.ForChunks, or kern.Sum.
func isKernEntry(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == kernPath && kernEntryNames[fn.Name()]
}

// isScratchType reports whether t (possibly behind pointers) is a named type
// whose name ends in "Scratch" — the project convention for caller-owned,
// strictly sequential work-buffer bundles (graph.ContractScratch,
// core.klScratch, la.CGScratch, …).
func isScratchType(t types.Type) bool {
	for {
		pt, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = pt.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return len(name) >= len("Scratch") && name[len(name)-len("Scratch"):] == "Scratch"
}

// isPkgLevel reports whether v is a package-level variable.
func isPkgLevel(v *types.Var) bool {
	return v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// inAuditedConcPkg reports whether the node's package is one of the two
// audited concurrency layers, whose internals are exempt from the raw-fact
// scan (their use of goroutines, channels and globals is the reviewed
// carve-out; callers are guarded at the boundary by EffPar/EffKern instead).
func (n *FuncNode) inAuditedConcPkg() bool {
	return n.Pkg.Path == parPath || n.Pkg.Path == kernPath
}

// scanDirect records n's call sites and direct effect facts.
func (prog *Program) scanDirect(n *FuncNode) {
	info := n.Pkg.Info
	audited := n.inAuditedConcPkg()
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			fn := calleeOf(info, x)
			if fn == nil {
				return true
			}
			n.calls = append(n.calls, callSite{pos: x.Pos(), callee: fn})
			if fn.Pkg() != nil && fn.Pkg().Path() == parPath && !audited && n.eff[EffPar] == nil {
				n.eff[EffPar] = &Trace{Desc: displayName(fn), Pos: x.Pos()}
			}
			if isKernEntry(fn) && !audited && n.eff[EffKern] == nil {
				n.eff[EffKern] = &Trace{Desc: displayName(fn), Pos: x.Pos()}
			}
			if !audited && n.eff[EffConc] == nil {
				if t := info.TypeOf(x); t != nil {
					if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" {
						if _, isChan := t.Underlying().(*types.Chan); isChan {
							n.eff[EffConc] = &Trace{Desc: "channel construction", Pos: x.Pos()}
						}
					}
				}
			}
		case *ast.GoStmt:
			if !audited && n.eff[EffConc] == nil {
				n.eff[EffConc] = &Trace{Desc: "go statement", Pos: x.Pos()}
			}
		case *ast.SendStmt:
			if !audited && n.eff[EffConc] == nil {
				n.eff[EffConc] = &Trace{Desc: "channel send", Pos: x.Arrow}
			}
		case *ast.SelectStmt:
			if !audited && n.eff[EffConc] == nil {
				n.eff[EffConc] = &Trace{Desc: "select statement", Pos: x.Select}
			}
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && !audited && n.eff[EffConc] == nil {
				if obj, ok := info.Uses[id].(*types.PkgName); ok {
					switch obj.Imported().Path() {
					case "sync", "sync/atomic":
						n.eff[EffConc] = &Trace{Desc: "sync primitive " + id.Name + "." + x.Sel.Name, Pos: x.Pos()}
					}
				}
			}
		case *ast.AssignStmt:
			if !audited {
				for _, lhs := range x.Lhs {
					prog.noteWrite(n, lhs)
				}
			}
		case *ast.IncDecStmt:
			if !audited {
				prog.noteWrite(n, x.X)
			}
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok && !audited {
				if isPkgLevel(v) && isScratchType(v.Type()) && n.eff[EffScratchGlobal] == nil {
					n.eff[EffScratchGlobal] = &Trace{Desc: "package-level scratch " + v.Name(), Pos: x.Pos()}
				}
			}
		}
		return true
	})
	n.floatAccParams = directFloatAccParams(n)
}

// noteWrite records an EffGlobalWrite fact when the write target's root is a
// package-level variable.
func (prog *Program) noteWrite(n *FuncNode, lhs ast.Expr) {
	if n.eff[EffGlobalWrite] != nil {
		return
	}
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	v, ok := n.Pkg.Info.Uses[root].(*types.Var)
	if !ok {
		v, ok = n.Pkg.Info.Defs[root].(*types.Var)
	}
	if ok && isPkgLevel(v) {
		n.eff[EffGlobalWrite] = &Trace{Desc: "package variable " + v.Name(), Pos: lhs.Pos()}
	}
}

// rootIdent walks an index/selector/deref chain to its base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
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
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// propagate closes the effect facts over the call graph: if f calls g and g
// has an effect, f has it too, witnessed through g. Iterates to a fixed
// point in deterministic node and call order so witness paths (and therefore
// diagnostics) are byte-identical run to run.
func (prog *Program) propagate() {
	for changed := true; changed; {
		changed = false
		for _, n := range prog.order {
			for _, cs := range n.calls {
				for _, callee := range prog.resolve(cs.callee) {
					for e := Effect(0); e < numEffects; e++ {
						if n.eff[e] == nil && callee.eff[e] != nil {
							n.eff[e] = &Trace{Via: callee.Fn, Pos: cs.pos}
							changed = true
						}
					}
				}
			}
		}
	}
}

// resolve maps a statically-resolved callee to graph nodes: the exact node
// for concrete functions, every same-named method for interface methods.
func (prog *Program) resolve(fn *types.Func) []*FuncNode {
	if n := prog.nodes[fn]; n != nil {
		return []*FuncNode{n}
	}
	// Interface method: CHA-lite dispatch to all declared methods of the name.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			return prog.byName[fn.Name()]
		}
	}
	return nil
}

// EffectOf returns the witness trace for fn having effect e, or nil. For
// interface methods it is satisfied by any implementation (conservative).
func (prog *Program) EffectOf(fn *types.Func, e Effect) *Trace {
	if fn == nil {
		return nil
	}
	// Intrinsic facts that need no node (the callee's package may not be part
	// of this Run — fixture packages import par/kern without loading them).
	switch e {
	case EffPar:
		if fn.Pkg() != nil && fn.Pkg().Path() == parPath {
			return &Trace{Desc: displayName(fn)}
		}
	case EffKern:
		if isKernEntry(fn) {
			return &Trace{Desc: displayName(fn)}
		}
	}
	for _, n := range prog.resolve(fn) {
		if t := n.eff[e]; t != nil {
			return t
		}
	}
	return nil
}

// PathOf reconstructs the display-name call path witnessing effect e from fn:
// [fn, intermediate…, fact]. Returns nil when fn lacks the effect.
func (prog *Program) PathOf(fn *types.Func, e Effect) []string {
	t := prog.EffectOf(fn, e)
	if t == nil {
		return nil
	}
	path := []string{displayName(fn)}
	for t.Via != nil {
		// Guard against pathological cycles in hand-edited traces.
		if len(path) > 32 {
			break
		}
		next := prog.EffectOf(t.Via, e)
		if next == nil {
			break
		}
		if t.Via != fn {
			path = append(path, displayName(t.Via))
		}
		t = next
	}
	if t.Desc != "" && (len(path) == 0 || path[len(path)-1] != t.Desc) {
		path = append(path, t.Desc)
	}
	return path
}

// directFloatAccParams finds pointer-to-float parameters the function
// accumulates into directly: *p += v, *p -= v, *p *= v, *p /= v, or
// *p = <expr mentioning *p>.
func directFloatAccParams(n *FuncNode) map[int]bool {
	sig, ok := n.Fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	ptrFloat := make(map[*types.Var]int)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if pt, ok := p.Type().(*types.Pointer); ok {
			if b, ok := pt.Elem().Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				ptrFloat[p] = i
			}
		}
	}
	if len(ptrFloat) == 0 {
		return nil
	}
	info := n.Pkg.Info
	out := make(map[int]bool)
	deref := func(e ast.Expr) *types.Var {
		st, ok := unparen(e).(*ast.StarExpr)
		if !ok {
			return nil
		}
		id, ok := unparen(st.X).(*ast.Ident)
		if !ok {
			return nil
		}
		v, _ := info.Uses[id].(*types.Var)
		return v
	}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return true
		}
		v := deref(as.Lhs[0])
		if v == nil {
			return true
		}
		i, isParam := ptrFloat[v]
		if !isParam {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			out[i] = true
		case token.ASSIGN:
			// *p = f(*p, …) and friends: RHS reads the same location back.
			ast.Inspect(as.Rhs[0], func(y ast.Node) bool {
				if st, ok := y.(*ast.StarExpr); ok {
					if id, ok := unparen(st.X).(*ast.Ident); ok {
						if w, _ := info.Uses[id].(*types.Var); w == v {
							out[i] = true
						}
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// propagateFloatAcc closes floatAccParams over calls that forward a pointer
// parameter verbatim: if f passes its param p as argument j of g and g
// accumulates into param j, then f accumulates into p.
func (prog *Program) propagateFloatAcc() {
	paramIndex := func(n *FuncNode, v *types.Var) (int, bool) {
		sig := n.Fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i) == v {
				return i, true
			}
		}
		return 0, false
	}
	for changed := true; changed; {
		changed = false
		for _, n := range prog.order {
			info := n.Pkg.Info
			ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := prog.nodes[calleeOf(info, call)]
				if callee == nil || len(callee.floatAccParams) == 0 {
					return true
				}
				for j, arg := range call.Args {
					if !callee.floatAccParams[j] {
						continue
					}
					id, ok := unparen(arg).(*ast.Ident)
					if !ok {
						continue
					}
					v, ok := info.Uses[id].(*types.Var)
					if !ok {
						continue
					}
					if i, isParam := paramIndex(n, v); isParam && !n.floatAccParams[i] {
						if n.floatAccParams == nil {
							n.floatAccParams = make(map[int]bool)
						}
						n.floatAccParams[i] = true
						changed = true
					}
				}
				return true
			})
		}
	}
}

// FloatAccParam reports whether fn accumulates a float through its i-th
// pointer parameter (directly or transitively).
func (prog *Program) FloatAccParam(fn *types.Func, i int) bool {
	n := prog.nodes[fn]
	return n != nil && n.floatAccParams[i]
}

// displayName renders a function for call-path diagnostics:
// "par.(*Comm).Barrier", "pared.(*Engine).Imbalance", "core.Repartition".
func displayName(fn *types.Func) string {
	name := fn.Name()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if pt, ok := t.(*types.Pointer); ok {
			t = pt.Elem()
			star = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + "(" + star + named.Obj().Name() + ")." + name
		}
		if iface, ok := t.(*types.Interface); ok {
			_ = iface
			return pkg + name
		}
	}
	return pkg + name
}
