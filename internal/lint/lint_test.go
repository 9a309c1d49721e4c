package lint

import (
	"go/token"
	"regexp"
	"testing"
)

// The fixture package under testdata/src/<check>/ carries `// want "regexp"`
// comments on every line the named check must flag. The test runs each check
// on its fixture and requires an exact match: every diagnostic must be
// expected, every expectation must fire.

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func TestFixtures(t *testing.T) {
	for _, check := range AllChecks() {
		t.Run(check.Name, func(t *testing.T) {
			pkg := loadFixture(t, check.Name)
			if !pkg.InTestdata() {
				t.Fatalf("fixture package %s not recognized as testdata", pkg.Path)
			}
			wants := collectWants(pkg)
			if len(wants) == 0 {
				t.Fatalf("fixture %s declares no want comments", check.Name)
			}
			diags := Run([]*Package{pkg}, []*Check{check})
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

// TestWholeTreeClean asserts the analyzer's own acceptance criterion: the
// full project tree is free of findings.
func TestWholeTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", []string{"./..."})
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
	mk := func(path string) *Package {
		return &Package{Path: path, Fset: token.NewFileSet()}
	}
	if !mk("pared/internal/core").InScope(deterministicPkgs...) {
		t.Error("internal/core must be in maporder scope")
	}
	for _, pkg := range []string{"refine", "forest"} {
		if !mk("pared/internal/" + pkg).InScope(deterministicPkgs...) {
			t.Errorf("internal/%s must be in maporder scope: it decides vertex numbering and node slots", pkg)
		}
	}
	if mk("pared/internal/fem").InScope(deterministicPkgs...) {
		t.Error("internal/fem must not be in maporder scope")
	}
	if !mk("pared/internal/lint/testdata/src/maporder").InScope(deterministicPkgs...) {
		t.Error("testdata fixtures must be in scope for every check")
	}
}

// loadFixture loads one testdata fixture package, failing the test on loader
// or type errors.
func loadFixture(t testing.TB, dir string) *Package {
	t.Helper()
	pkgs, err := Load(".", []string{"./testdata/src/" + dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s loaded %d packages, want 1", dir, len(pkgs))
	}
	return pkgs[0]
}

// BenchmarkLintTree measures the full pipeline — parse, type-check, every
// check in AllChecks — over the whole repository, so a future check cannot
// silently blow up lint latency (CI separately enforces a 30 s wall clock on
// make lint).
func BenchmarkLintTree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkgs, err := Load("../..", []string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		diags := Run(pkgs, AllChecks())
		if len(diags) != 0 {
			b.Fatalf("tree not clean: %v", diags[0])
		}
	}
}
