package lint

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture packages under testdata/src/<check>/ carry `// want "regexp"`
// comments on every line the named check must flag. The test runs one check
// per fixture and requires an exact match: every diagnostic must be expected,
// every expectation must fire.

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func TestFixtures(t *testing.T) {
	cases := []struct {
		check *Check
		dir   string
	}{
		{MapOrder, "maporder"},
		{RawConc, "rawconc"},
		{FloatEq, "floateq"},
		{ErrCheck, "errcheck"},
		{Sleep, "sleep"},
	}
	for _, tc := range cases {
		t.Run(tc.check.Name, func(t *testing.T) {
			pkg := loadFixture(t, tc.dir)
			if !pkg.InTestdata() {
				t.Fatalf("fixture package %s not recognized as testdata", pkg.Path)
			}
			wants := collectWants(pkg)
			if len(wants) == 0 {
				t.Fatalf("fixture %s declares no want comments", tc.dir)
			}
			diags := Run([]*Package{pkg}, []*Check{tc.check})
			for _, d := range diags {
				matched := false
				for _, w := range wants {
					if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Msg) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
				}
			}
		})
	}
}

// collectWants extracts the want comments of a loaded fixture package.
func collectWants(pkg *Package) []*want {
	var out []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out = append(out, &want{
					file: pos.Filename,
					line: pos.Line,
					re:   regexp.MustCompile(m[1]),
				})
			}
		}
	}
	return out
}

// TestDirectiveParsing covers the allow-directive grammar.
func TestDirectiveParsing(t *testing.T) {
	for _, tt := range []struct {
		text   string
		checks []string
	}{
		{"//paredlint:allow maporder", []string{"maporder"}},
		{"// paredlint:allow floateq -- exact zero guard", []string{"floateq"}},
		{"//paredlint:allow maporder,floateq -- both", []string{"maporder", "floateq"}},
		{"// just a comment mentioning paredlint:allow rules", nil},
	} {
		m := directiveRE.FindStringSubmatch(tt.text)
		if tt.checks == nil {
			if m != nil {
				t.Errorf("%q: unexpectedly parsed as directive", tt.text)
			}
			continue
		}
		if m == nil {
			t.Errorf("%q: did not parse as directive", tt.text)
			continue
		}
		var got []string
		for _, name := range strings.Split(m[1], ",") {
			if name = strings.TrimSpace(name); name != "" {
				got = append(got, name)
			}
		}
		if strings.Join(got, "+") != strings.Join(tt.checks, "+") {
			t.Errorf("%q: parsed checks %v, want %v", tt.text, got, tt.checks)
		}
	}
}

// TestWholeTreeClean asserts the analyzer's own acceptance criterion: the
// full project tree is free of findings (intentional exceptions carry
// directives).
func TestWholeTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load([]string{filepath.Join(l.ModuleRoot, "...")})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	diags := Run(pkgs, AllChecks())
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestInScope pins the scoping rules the checks rely on.
func TestInScope(t *testing.T) {
	mk := func(path, dir string) *Package {
		return &Package{Path: path, Dir: dir, Fset: token.NewFileSet()}
	}
	if !mk("pared/internal/core", "/x/internal/core").InScope(deterministicPkgs...) {
		t.Error("internal/core must be in maporder scope")
	}
	for _, pkg := range []string{"refine", "forest"} {
		if !mk("pared/internal/"+pkg, "/x/internal/"+pkg).InScope(deterministicPkgs...) {
			t.Errorf("internal/%s must be in maporder scope: it decides vertex numbering and node slots", pkg)
		}
	}
	if mk("pared/internal/fem", "/x/internal/fem").InScope(deterministicPkgs...) {
		t.Error("internal/fem must not be in maporder scope")
	}
	if !mk("pared/internal/lint/testdata/src/maporder", "/x/internal/lint/testdata/src/maporder").InScope(deterministicPkgs...) {
		t.Error("testdata fixtures must be in scope for every check")
	}
}

// loadFixture loads one testdata fixture package, failing the test on loader
// or type errors.
func loadFixture(t testing.TB, dir string) *Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s loaded no package", dir)
	}
	if len(l.errs) > 0 {
		t.Fatalf("fixture %s has type errors: %v", dir, l.errs[0])
	}
	return pkg
}

// TestAllowEdgeCases covers the suppression corner cases on the allowedge
// fixture: a directive on the wrong line does not suppress (and is stale), a
// multi-check directive suppresses two checks at one site, and a directive
// with no finding is stale.
func TestAllowEdgeCases(t *testing.T) {
	pkg := loadFixture(t, "allowedge")
	checks := []*Check{Sleep, RawConc, ErrCheck, FloatEq}
	diags := Run([]*Package{pkg}, checks)

	// The wrong-line sleep directive must not suppress the finding.
	if len(diags) != 1 || diags[0].Check != "sleep" {
		t.Fatalf("want exactly the unsuppressed sleep finding, got %v", diags)
	}
	// The multi-check directive must have eaten both rawconc and errcheck.
	for _, d := range diags {
		if d.Check == "rawconc" || d.Check == "errcheck" {
			t.Errorf("multi-check directive failed to suppress: %s", d)
		}
	}

	stale := StaleAllows([]*Package{pkg}, checks)
	var staleChecks []string
	for _, d := range stale {
		if d.Check != "allow" {
			t.Errorf("stale finding carries check %q, want \"allow\": %s", d.Check, d)
		}
		staleChecks = append(staleChecks, d.Msg)
	}
	if len(stale) != 2 {
		t.Fatalf("want 2 stale directives (wrong-line sleep, unused floateq), got %d: %v", len(stale), stale)
	}
	joined := strings.Join(staleChecks, "\n")
	for _, name := range []string{"sleep", "floateq"} {
		if !strings.Contains(joined, name) {
			t.Errorf("stale directives %q missing %s", joined, name)
		}
	}
	// The used multi-check entries must NOT be stale.
	for _, name := range []string{"rawconc", "errcheck"} {
		if strings.Contains(joined, name) {
			t.Errorf("used %s suppression wrongly reported stale: %q", name, joined)
		}
	}
}

// TestStaleAllowsOnlyForRanChecks pins that StaleAllows ignores directives
// for checks that were not part of the run — a maporder allow is not stale
// just because only sleep ran.
func TestStaleAllowsOnlyForRanChecks(t *testing.T) {
	pkg := loadFixture(t, "allowedge")
	checks := []*Check{Sleep}
	Run([]*Package{pkg}, checks)
	for _, d := range StaleAllows([]*Package{pkg}, checks) {
		if !strings.Contains(d.Msg, "sleep") {
			t.Errorf("stale report for a check that did not run: %s", d)
		}
	}
}

// BenchmarkLintTree measures the full pipeline — parse, type-check, every
// check in AllChecks — over the whole repository, so a future check cannot
// silently blow up lint latency (CI separately enforces a 30 s wall clock on
// make lint).
func BenchmarkLintTree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, err := NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := l.Load([]string{filepath.Join(l.ModuleRoot, "...")})
		if err != nil {
			b.Fatal(err)
		}
		diags := Run(pkgs, AllChecks())
		if len(diags) != 0 {
			b.Fatalf("tree not clean: %v", diags[0])
		}
	}
}
