// Command paredlint runs the project's static-analysis suite (see
// internal/lint) over the given packages and reports findings with file:line
// positions, exiting non-zero if any are found.
//
// Usage:
//
//	paredlint [flags] [packages]
//
//	paredlint ./...                      # whole module (default)
//	paredlint ./internal/core ./cmd/...  # explicit packages
//	paredlint -only maporder ./...       # a single check by name
//	paredlint -json ./...                # one JSON object per finding
//
// The checks are documented in package lint. A //paredlint:allow directive
// of a check that ran and that suppresses nothing is itself a finding
// ([allow]).
//
// -json emits one {check, file, line, msg} object per line, then one
// {timings: [{check, ms}, ...]} summary object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"pared/internal/lint"
)

// jsonDiag is the machine-readable finding shape of -json mode.
type jsonDiag struct {
	Check string `json:"check"`
	File  string `json:"file"`
	Line  int    `json:"line"`
	Msg   string `json:"msg"`
}

// jsonTiming is one per-check wall-time entry of the -json trailer object.
type jsonTiming struct {
	Check string  `json:"check"`
	Ms    float64 `json:"ms"`
}

// jsonTrailer is the summary object ending -json output.
type jsonTrailer struct {
	Timings []jsonTiming `json:"timings"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic object per line, then a timings summary object")
	only := flag.String("only", "", "run a single check by name")
	flag.Parse()

	checks := lint.AllChecks()
	if *only != "" {
		checks = slices.DeleteFunc(checks, func(c *lint.Check) bool { return c.Name != *only })
		if len(checks) == 0 {
			fatal(fmt.Errorf("unknown check %q", *only))
		}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		fatal(err)
	}

	diags, timings := lint.RunTimed(pkgs, checks)
	diags = append(diags, lint.StaleAllows(pkgs, checks)...)
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			d.Pos.Filename = rel
		}
		if *jsonOut {
			if err := enc.Encode(jsonDiag{
				Check: d.Check,
				File:  d.Pos.Filename,
				Line:  d.Pos.Line,
				Msg:   d.Msg,
			}); err != nil {
				fatal(err)
			}
			continue
		}
		fmt.Println(d)
	}
	if *jsonOut {
		trailer := jsonTrailer{Timings: make([]jsonTiming, 0, len(timings))}
		for _, t := range timings {
			trailer.Timings = append(trailer.Timings, jsonTiming{Check: t.Name, Ms: t.Ms})
		}
		if err := enc.Encode(trailer); err != nil {
			fatal(err)
		}
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
