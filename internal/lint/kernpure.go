package lint

import (
	"go/ast"
)

// KernPure enforces the kern body contract statically (kern package doc):
// a closure handed to kern.For/ForChunks/Sum runs concurrently on multiple
// goroutines over disjoint chunks, so it may write only chunk-owned
// locations and must not communicate or nest. Flagged:
//
//   - writes to captured variables (scalars, struct fields, derefs) — a
//     data race and an order-dependent result;
//   - element writes into captured slices at indices not derived from the
//     chunk parameters (two chunks may hit the same slot);
//   - writes into captured maps (never chunk-partitionable);
//   - append to a captured slice (reallocation races, order-dependence);
//   - calls into internal/par, nested kern entries, sync/channel use — both
//     direct and transitive through the call graph (path reported);
//   - calls to functions that write package-level state.
//
// The chunk-purity analysis is deliberately tolerant of captured READ-ONLY
// state inside index expressions (`scol[j]` where j comes from a captured
// offset table the body never writes): disjointness of such precomputed
// segments is the caller's contract, exactly as at runtime. See flow.go.
var KernPure = &Check{
	Name: "kernpure",
	Doc:  "kern.For/ForChunks/Sum bodies must be chunk-pure: no captured writes outside chunk-derived indices, no par/sync/nested kern",
	Run:  runKernPure,
}

func runKernPure(p *Pass) {
	if p.Path == kernPath {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			bindings := litBindings(p, fd)
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok || !isKernEntry(calleeOf(p.Info, call)) || len(call.Args) == 0 {
					return true
				}
				body := call.Args[len(call.Args)-1]
				lit := resolveBodyArg(p, body, bindings)
				if lit == nil {
					return true
				}
				checkKernBody(p, lit)
				return true
			})
		}
	}
}

func checkKernBody(p *Pass, lit *ast.FuncLit) {
	kb := newKernBody(p, lit)
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				// `x = append(x, …)` is reported once, by the append rule.
				if len(x.Lhs) == len(x.Rhs) {
					if call, ok := unparen(x.Rhs[i]).(*ast.CallExpr); ok {
						if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
							continue
						}
					}
				}
				if why := kb.writeViolation(lhs); why != "" {
					p.Reportf(lhs.Pos(), "kern body %s: chunks must write disjoint chunk-owned locations", why)
				}
			}
		case *ast.IncDecStmt:
			if why := kb.writeViolation(x.X); why != "" {
				p.Reportf(x.X.Pos(), "kern body %s: chunks must write disjoint chunk-owned locations", why)
			}
		case *ast.CallExpr:
			checkKernCall(p, kb, x)
		case *ast.GoStmt:
			p.Reportf(x.Pos(), "kern body starts a goroutine: kern owns intra-rank parallelism, bodies must not spawn more")
		case *ast.SendStmt:
			p.Reportf(x.Arrow, "kern body sends on a channel: bodies must not block on other chunks")
		case *ast.FuncLit:
			// Nested literals run on this chunk's goroutine; analyze inline.
			return true
		}
		return true
	})
}

// checkKernCall classifies one call inside a kern body.
func checkKernCall(p *Pass, kb *kernBody, call *ast.CallExpr) {
	// Builtins first: append into captured slices.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
		v := varOf(p.Info, lhs2root(call.Args[0]))
		if v != nil && isCapturedBy(kb.lit, v) {
			p.Reportf(call.Pos(), "kern body appends to captured slice %s: reallocation races and order-dependent layout", v.Name())
		}
		return
	}
	// copy(dst, src): dst is a write; validate its bounds like an lvalue.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "copy" && len(call.Args) == 2 {
		if why := kb.sliceBoundsViolation(call.Args[0]); why != "" {
			p.Reportf(call.Pos(), "kern body %s: chunks must write disjoint chunk-owned locations", why)
		}
		return
	}
	fn := calleeOf(p.Info, call)
	if fn == nil {
		return
	}
	if isKernEntry(fn) {
		p.Reportf(call.Pos(), "kern body calls %s: kern does not nest", displayName(fn))
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == parPath {
		p.Reportf(call.Pos(), "kern body calls %s: bodies must not communicate between ranks", displayName(fn))
		return
	}
	type rule struct {
		eff Effect
		msg string
	}
	for _, r := range []rule{
		{EffKern, "kern body call to %s reaches %s: kern does not nest"},
		{EffPar, "kern body call to %s reaches %s: bodies must not communicate between ranks"},
		{EffConc, "kern body call to %s reaches raw concurrency (%s): bodies must not synchronize outside kern"},
		{EffGlobalWrite, "kern body call to %s writes shared state (%s): chunks must write disjoint chunk-owned locations"},
	} {
		if t := p.Prog.EffectOf(fn, r.eff); t != nil {
			path := p.Prog.PathOf(fn, r.eff)
			p.ReportPathf(call.Pos(), path, r.msg, displayName(fn), lastOf(path))
			return
		}
	}
}

// lastOf returns the final step of a witness path: the fact it reaches.
func lastOf(path []string) string {
	if len(path) == 0 {
		return "?"
	}
	return path[len(path)-1]
}
