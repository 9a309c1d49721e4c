package main

import (
	"bytes"
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
