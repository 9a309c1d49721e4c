package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestInputsCheckedBeforeRanksStart: a bad input starts nothing — no output,
// one line on stderr that names the problem, exit 2 — and a good run prints
// its steps and exits 0.
func TestInputsCheckedBeforeRanksStart(t *testing.T) {
	bad := []struct {
		args []string
		want string // substring of the one stderr line
	}{
		{[]string{"-grid", "0"}, "-grid wants at least 1"},
		{[]string{"-p", "0"}, "-p wants at least 1"},
		{[]string{"-problem", "wave"}, `unknown problem "wave" (want corner|transient)`},
		{[]string{"-algo", "metis"}, `unknown algorithm "metis"`},
		{[]string{"-p", "4", "-algo", "hier", "-topo", "3x2"}, "does not factor 4 ranks"},
		{[]string{"-p", "4", "-algo", "hier", "-penalty", "-3"}, "inter-node penalty -3 is negative"},
		{[]string{"-p", "4", "-algo", "hier", "-penalty", "0.3"}, "inter-node penalty 0.3 is below 1"},
	}
	for _, tc := range bad {
		var out, errOut bytes.Buffer
		if code := run(append(tc.args, "-steps", "1"), &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v ran something:\n%s", tc.args, out.String())
		}
		msg := errOut.String()
		if !strings.HasPrefix(msg, "pared: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q, want one \"pared: …\" line containing %q", tc.args, msg, tc.want)
		}
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"-p", "3", "-grid", "6", "-problem", "transient", "-steps", "2", "-algo", "sfc"}, &out, &errOut); code != 0 {
		t.Fatalf("good run: exit %d, stderr:\n%s", code, errOut.String())
	}
	if errOut.Len() != 0 {
		t.Errorf("good run wrote to stderr:\n%s", errOut.String())
	}
	for _, want := range []string{"step  0:", "step  1:", "total migrated elements over run:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("good run output lacks %q:\n%s", want, out.String())
		}
	}
}
