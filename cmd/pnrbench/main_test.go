package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExpNameMatchedExactly: a name -exp does not list — unknown, a prefix or
// substring of a real one, or two names at once — runs nothing, exits 2 and
// says what the names are.
func TestExpNameMatchedExactly(t *testing.T) {
	list := strings.Join(experimentNames, " ")
	for _, name := range []string{"fig", "e", "fig6", "engine ablation", "", "ALL"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-exp", name, "-quick"}, &out, &errOut); code != 2 {
			t.Errorf("-exp %q: exit %d, want 2", name, code)
		}
		if out.Len() != 0 {
			t.Errorf("-exp %q ran something:\n%s", name, out.String())
		}
		if !strings.Contains(errOut.String(), list) {
			t.Errorf("-exp %q: error does not name the list: %s", name, errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), strings.Join(experimentNames, "|")) {
		t.Errorf("-h does not list every experiment:\n%s", errOut.String())
	}
	out.Reset()
	if code := run([]string{"-exp", "thm61", "-quick"}, &out, &errOut); code != 0 || !strings.Contains(out.String(), "=== thm61 (scale=quick) ===") {
		t.Errorf("-exp thm61 -quick: exit %d, output:\n%s", code, out.String())
	}
}

// TestAllQuickGolden runs every experiment at quick scale and compares the
// output with testdata/all_quick.txt, line for line, less the lines that
// report wall time (timingLine). Every table the figures print is
// deterministic, so any changed digit is a changed result. After a change
// that moves a figure on purpose, regenerate the file with
//
//	go run ./cmd/pnrbench -exp all -quick | grep -v -e '^\[.* took .*\]$' -e '^phase totals' > cmd/pnrbench/testdata/all_quick.txt
func TestAllQuickGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "all", "-quick"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ln := range strings.Split(out.String(), "\n") {
		if !timingLine(ln) {
			got = append(got, ln)
		}
	}
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < max(len(got), len(wantLines)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d differs from testdata/all_quick.txt:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// timingLine reports whether ln is a section's `took` line or an engine
// block's `phase totals` line, the only lines that vary run to run.
func timingLine(ln string) bool {
	return strings.HasPrefix(ln, "phase totals") ||
		strings.HasPrefix(ln, "[") && strings.HasSuffix(ln, "]") && strings.Contains(ln, " took ")
}
