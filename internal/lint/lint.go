// Package lint implements paredlint, the project's static analyzer.
//
// PNR's correctness story — the §8 migration lower bound, the Table 2/3 cut
// and balance numbers — only reproduces if the pipeline is deterministic.
// Go silently loses that through unordered map iteration, and a map range can
// appear anywhere in the packages that decide partitions, so paredlint
// machine-checks one rule, per file:
//
//	maporder — no order-sensitive iteration over maps in the deterministic
//	           packages (internal/core, internal/graph, internal/partition,
//	           internal/pared, internal/refine, internal/forest)
//
// Everything else is checked at run time instead. Collective ordering:
// internal/par detects the resulting deadlock exactly and Run returns it as an
// error. Racing goroutines, shared scratch buffers and order-dependent float
// sums: the race detector and the byte-identity tests across runs and
// GOMAXPROCS values (la, fem, graph, core, pared). Dropped write errors: the
// failing-writer tests of every writer.
//
// The analyzer is stdlib-only (go/parser, go/ast, go/types); see
// cmd/paredlint for the command-line driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at file:line:col.
type Diagnostic struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Msg)
}

// Check is one analyzer. Run inspects a single package and reports findings
// through the pass.
type Check struct {
	Name string
	Run  func(p *Pass)
}

// AllChecks lists every check in the suite, in reporting order.
func AllChecks() []*Check {
	return []*Check{MapOrder}
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("pared/internal/core"). Packages loaded from a
	// testdata directory are treated as in-scope by every check.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// InTestdata reports whether the package was loaded from a testdata tree
// (analyzer fixtures); such packages are in scope for every check so the
// fixtures exercise path-restricted checks too.
func (p *Package) InTestdata() bool {
	return strings.Contains(p.Path, "/testdata/")
}

// InScope reports whether the package path falls under any of the given
// import-path prefixes.
func (p *Package) InScope(prefixes ...string) bool {
	if p.InTestdata() {
		return true
	}
	for _, pre := range prefixes {
		if p.Path == pre || strings.HasPrefix(p.Path, pre+"/") {
			return true
		}
	}
	return false
}

// Pass is the per-(check, package) reporting context.
type Pass struct {
	*Package
	check *Check
	out   *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:   p.Fset.Position(pos),
		Check: p.check.Name,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// PkgNameOf resolves an identifier used as a package qualifier to its import
// path ("" if the identifier is not a package name).
func (p *Pass) PkgNameOf(id *ast.Ident) string {
	if obj, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return obj.Imported().Path()
	}
	return ""
}

// Run executes the given checks over the packages and returns all findings
// sorted by position.
func Run(pkgs []*Package, checks []*Check) []Diagnostic {
	var diags []Diagnostic
	for _, c := range checks {
		for _, pkg := range pkgs {
			c.Run(&Pass{Package: pkg, check: c, out: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}
