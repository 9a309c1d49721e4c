package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

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
	checks := []*Check{Sleep, RawConc, ScratchAlias, FloatEq}
	diags := Run([]*Package{pkg}, checks)

	// The wrong-line sleep directive must not suppress the finding.
	if len(diags) != 1 || diags[0].Check != "sleep" {
		t.Fatalf("want exactly the unsuppressed sleep finding, got %v", diags)
	}
	// The multi-check directive must have eaten both rawconc and scratchalias.
	for _, d := range diags {
		if d.Check == "rawconc" || d.Check == "scratchalias" {
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
	for _, name := range []string{"rawconc", "scratchalias"} {
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

// BenchmarkLintTree measures the full pipeline — parse, type-check, call
// graph, all ten checks — over the whole repository, so future checks
// cannot silently blow up lint latency (CI separately enforces a 30s wall
// clock on the paredlint binary).
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
