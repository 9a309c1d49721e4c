// Package lint implements paredlint, the project's static-analysis suite.
//
// PNR's correctness story — the §8 migration lower bound, the Table 2/3 cut
// and balance numbers — only reproduces if the pipeline is deterministic and
// all inter-rank communication flows through internal/par. Go silently loses
// both properties through unordered map iteration, float ==, ad-hoc
// goroutines, and dropped errors. paredlint machine-checks five project
// rules, each per file:
//
//	maporder — no order-sensitive iteration over maps in the deterministic
//	           packages (internal/core, internal/graph, internal/partition,
//	           internal/pared)
//	rawconc  — no go statements, channel construction, or sync primitives
//	           outside the audited concurrency packages internal/par (rank
//	           parallelism via par.Comm) and internal/kern (deterministic
//	           data parallelism)
//	floateq  — no ==/!= on floating-point operands in non-test code
//	errcheck — no silently dropped error return values
//	sleep    — no time.Sleep used as synchronization in library code
//
// What a whole-program analysis would add is checked at run time instead.
// Collective ordering: internal/par detects the resulting deadlock exactly
// and Run returns it as an error. Racing kern bodies, shared scratch buffers
// and order-dependent float sums: the race detector and the byte-identity
// tests across runs and GOMAXPROCS values (la, fem, graph, core, pared).
//
// The analyzer is stdlib-only (go/parser, go/ast, go/types); see
// cmd/paredlint for the command-line driver.
//
// Intentional violations are suppressed with a directive comment on the
// offending line or the line above it:
//
//	//paredlint:allow maporder -- iteration order provably irrelevant
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
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
	Doc  string
	Run  func(p *Pass)
}

// AllChecks lists every check in the suite, in reporting order.
func AllChecks() []*Check {
	return []*Check{MapOrder, RawConc, FloatEq, ErrCheck, Sleep}
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("pared/internal/core"). Packages loaded from a
	// testdata directory keep their on-disk pseudo path and are treated as
	// in-scope by every check.
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// allows maps filename → line → suppressions declared on that line.
	allows map[string]map[int][]*allowEntry
}

// allowEntry is one check name from one paredlint:allow directive. used
// flips when a finding is suppressed by it, so unused (stale) directives can
// be reported (StaleAllows).
type allowEntry struct {
	check string
	used  bool
}

// InTestdata reports whether the package was loaded from a testdata tree
// (analyzer fixtures); such packages are in scope for every check so the
// fixtures exercise path-restricted checks too.
func (p *Package) InTestdata() bool {
	return strings.Contains(p.Path, "testdata") || strings.Contains(p.Dir, "testdata")
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

// directiveRE matches "//paredlint:allow check1,check2 [-- reason]".
var directiveRE = regexp.MustCompile(`^//\s*paredlint:allow\s+([a-z, ]+?)\s*(?:--.*)?$`)

// buildAllows scans file comments for paredlint:allow directives.
func (p *Package) buildAllows() {
	p.allows = make(map[string]map[int][]*allowEntry)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.allows[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*allowEntry)
					p.allows[pos.Filename] = byLine
				}
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					if name != "" {
						byLine[pos.Line] = append(byLine[pos.Line], &allowEntry{check: name})
					}
				}
			}
		}
	}
}

// allowed reports whether check name is suppressed at pos (directive on the
// same line or the line immediately above), marking the matching entry used.
func (p *Package) allowed(name string, pos token.Position) bool {
	byLine := p.allows[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, e := range byLine[line] {
			if e.check == name {
				e.used = true
				return true
			}
		}
	}
	return false
}

// StaleAllows reports, for the checks that actually ran, every allow entry no
// finding used: a suppression with nothing to suppress is dead weight that
// hides future regressions. Call after Run; findings come back as "allow"
// diagnostics, which cmd/paredlint always appends.
func StaleAllows(pkgs []*Package, checks []*Check) []Diagnostic {
	ran := make(map[string]bool, len(checks))
	for _, c := range checks {
		ran[c.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for file, byLine := range pkg.allows {
			for line, entries := range byLine {
				for _, e := range entries {
					if !e.used && ran[e.check] {
						diags = append(diags, Diagnostic{
							Pos:   token.Position{Filename: file, Line: line, Column: 1},
							Check: "allow",
							Msg:   fmt.Sprintf("stale suppression: no %s finding on this line or the line below", e.check),
						})
					}
				}
			}
		}
	}
	sortDiags(diags)
	return diags
}

// Pass is the per-(check, package) reporting context.
type Pass struct {
	*Package
	check *Check
	out   *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowed(p.check.Name, position) {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Pos:   position,
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

// IsPkgCall reports whether call invokes pkgPath.name (a package-level
// function accessed through a selector).
func (p *Pass) IsPkgCall(call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && p.PkgNameOf(id) == pkgPath
}

// Run executes the given checks over the packages and returns all findings
// sorted by position.
func Run(pkgs []*Package, checks []*Check) []Diagnostic {
	diags, _ := RunTimed(pkgs, checks)
	return diags
}

// CheckTiming is the wall time one check spent across all packages.
type CheckTiming struct {
	Name string
	Ms   float64
}

// RunTimed is Run, also returning per-check wall times so the CI timing
// guard stays diagnosable as checks accumulate.
func RunTimed(pkgs []*Package, checks []*Check) ([]Diagnostic, []CheckTiming) {
	var timings []CheckTiming
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.allows == nil {
			pkg.buildAllows()
		}
	}
	for _, c := range checks {
		tc := time.Now()
		for _, pkg := range pkgs {
			c.Run(&Pass{Package: pkg, check: c, out: &diags})
		}
		timings = append(timings, CheckTiming{Name: c.Name, Ms: float64(time.Since(tc).Microseconds()) / 1000})
	}
	sortDiags(diags)
	return diags, timings
}

func sortDiags(diags []Diagnostic) {
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
}
