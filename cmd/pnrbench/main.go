// Command pnrbench regenerates the paper's tables and figures.
//
// Usage:
//
//	pnrbench -exp all            # everything, paper scale (minutes)
//	pnrbench -exp fig3 -quick    # one experiment at test scale (seconds)
//	pnrbench -exp transient -svg out/
//	pnrbench -exp engine -mode sfc -quick
//
// -exp takes exactly one of the names in experimentNames (`pnrbench -h`
// prints them). The engine experiment runs once per rebalance algorithm
// selected by -mode: a name registered in internal/pared (see
// pared.AlgorithmNames), or all; sfc runs a second time on a tetrahedral
// mesh. -mode validation and the `all` expansion both read the registry, so
// a registered algorithm cannot be dropped from either.
//
// pnrbench reproduces figures; it is not a benchmark. Its `took` and `phase
// totals` lines are for the reader at the terminal — performance claims rest
// on BENCHMARK.json (bench/), allocation budgets on BENCH_allocs.json.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"pared/internal/experiments"
	"pared/internal/pared"
)

// experimentNames is every value -exp accepts, in execution order; the flag's
// help text and the unknown-name error are both built from it.
var experimentNames = []string{
	"fig1", "fig3", "fig4", "fig5", "threeway", "transient", "fig45_3d", "transient3d",
	"bound8", "thm61", "engine", "ablation", "geo", "diffusion", "all",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code as values, so tests drive the
// flag handling in-process.
func run(args []string, w, stderr io.Writer) int {
	fs := flag.NewFlagSet("pnrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(experimentNames, "|"))
	quick := fs.Bool("quick", false, "run reduced sizes (seconds instead of minutes)")
	svg := fs.String("svg", "", "directory for SVG mesh renderings (fig1, transient)")
	mode := fs.String("mode", "all", "engine rebalance mode: "+strings.Join(pared.AlgorithmNames(), "|")+"|all")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if !slices.Contains(experimentNames, *exp) {
		fmt.Fprintf(stderr, "pnrbench: unknown experiment %q (want one of %s)\n", *exp, strings.Join(experimentNames, " "))
		return 2
	}
	if _, err := pared.ConfigByName(*mode); *mode != "all" && err != nil {
		fmt.Fprintf(stderr, "pnrbench: -mode: %v\n", err)
		return 2
	}

	scale, scaleName := experiments.Full, "full"
	if *quick {
		scale, scaleName = experiments.Quick, "quick"
	}
	if *svg != "" {
		if err := os.MkdirAll(*svg, 0o755); err != nil {
			fmt.Fprintf(stderr, "pnrbench: %v\n", err)
			return 1
		}
	}
	// section runs f as one titled block if -exp selects name.
	section := func(name, title string, f func()) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		fmt.Fprintf(w, "\n=== %s (scale=%v) ===\n", title, scaleName)
		f()
		fmt.Fprintf(w, "[%s took %v]\n", title, time.Since(start).Round(time.Millisecond))
	}
	one := func(name string, f func()) { section(name, name, f) }

	one("fig1", func() { experiments.Fig1(w, scale, *svg) })
	one("fig3", func() { experiments.Fig3(w, scale) })
	one("fig4", func() { experiments.Fig4(w, experiments.DefaultGrowth(scale)) })
	one("fig5", func() { experiments.Fig5(w, experiments.DefaultGrowth(scale)) })
	one("threeway", func() { experiments.ThreeWay(w, scale) })
	one("transient", func() {
		cfg := experiments.DefaultTransient(scale)
		cfg.SVGDir = *svg
		experiments.Transient(w, cfg)
	})
	one("fig45_3d", func() {
		experiments.Fig4(w, experiments.DefaultGrowth3D(scale))
		experiments.Fig5(w, experiments.DefaultGrowth3D(scale))
	})
	one("transient3d", func() { experiments.Transient(w, experiments.DefaultTransient3D(scale)) })
	one("bound8", func() { experiments.Section8(w, scale) })
	one("thm61", func() { experiments.Theorem61(w, scale) })
	// One block per requested rebalance algorithm. sfc runs a second time on
	// a tetrahedral mesh: its 3D curve keys are a separate code path.
	for _, name := range pared.AlgorithmNames() {
		if *mode != "all" && *mode != name {
			continue
		}
		title := "engine_" + name
		if name == "pnr" {
			title = "engine"
		}
		section("engine", title, func() { experiments.EngineDemo(w, scale, name) })
		if name == "sfc" {
			section("engine", "engine_sfc_3d", func() { experiments.EngineDemo3D(w, scale, name) })
		}
	}
	one("ablation", func() { experiments.Ablation(w, scale) })
	one("geo", func() { experiments.GeoComparison(w, scale) })
	one("diffusion", func() { experiments.DiffusionComparison(w, scale) })
	return 0
}
