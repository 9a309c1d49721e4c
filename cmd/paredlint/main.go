// Command paredlint runs the project's static analyzer (see internal/lint)
// over the given packages and prints one `file:line:col: [check] msg` line
// per finding.
//
// Usage:
//
//	paredlint [packages]
//
//	paredlint ./...                      # whole module (default)
//	paredlint ./internal/core ./cmd/...  # explicit packages
//
// It exits 0 on a clean tree, 1 if there are findings, and 2 if the packages
// cannot be loaded (a flag, a bad pattern, a type error, or no enclosing
// module).
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pared/internal/lint"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fatal(fmt.Errorf("%s: not a package pattern; usage: paredlint [packages]", p))
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.Load(cwd, patterns)
	if err != nil {
		fatal(err)
	}
	diags := lint.Run(pkgs, lint.AllChecks())
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "paredlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "paredlint: %v\n", err)
	os.Exit(2)
}
