// Command pared runs the full distributed adaptive pipeline (Figure 2) on a
// chosen problem: goroutine ranks bootstrap from a coordinator-computed
// partition, adapt with cross-rank conformal refinement, and rebalance with
// PNR, RSB or Multilevel-KL at the coordinator — coordinator-free with
// space-filling-curve bands (-algo sfc) — with PNR's refinement sweeps
// rank-distributed and deterministically resolved (-algo distrefine) — or
// hierarchically over a two-level node × core topology (-algo hier, shaped
// by -topo, e.g. -topo 4x2 for 4 nodes of 2 cores).
//
// Usage:
//
//	pared -p 8 -problem corner -steps 6
//	pared -p 16 -problem transient -steps 40 -algo rsb
//	pared -p 16 -problem transient -steps 40 -algo sfc
//	pared -p 8 -problem transient -steps 40 -algo hier -topo 2x4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pared/internal/fem"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/pared"
	"pared/internal/refine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code as values, so tests drive the
// flag handling in-process. Every input is checked before a rank starts: a
// bad one costs one line on stderr and exit 2.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pared", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := fs.Int("p", 8, "number of ranks")
	problem := fs.String("problem", "corner", "corner|transient")
	algo := fs.String("algo", "pnr", "repartitioner: "+strings.Join(pared.AlgorithmNames(), "|")+" (sfc is coordinator-free, distrefine rank-splits the PNR refinement sweeps, hier partitions two-level over -topo)")
	topo := fs.String("topo", "", "hier topology as NxC (nodes x cores per node, N*C = -p); empty picks the most balanced factorization")
	penalty := fs.Float64("penalty", 0, "hier inter-node edge penalty, at least 1 (0 = default 4)")
	grid := fs.Int("grid", 20, "initial mesh resolution")
	steps := fs.Int("steps", 6, "adaptation steps")
	tol := fs.Float64("tol", 5e-3, "refinement tolerance")
	trigger := fs.Float64("trigger", 0.05, "imbalance triggering repartition")
	traceOn := fs.Bool("trace", false, "emit per-phase timings from every rank")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "pared: "+format+"\n", a...)
		return 2
	}
	if *p < 1 {
		return usage("-p wants at least 1 rank, got %d", *p)
	}
	if *grid < 1 {
		return usage("-grid wants at least 1 cell per side, got %d", *grid)
	}
	if *problem != "corner" && *problem != "transient" {
		return usage("unknown problem %q (want corner|transient)", *problem)
	}
	cfg, err := pared.ConfigByName(*algo)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg.ImbalanceTrigger = *trigger
	cfg.Topology.InterNodePenalty = *penalty
	if *topo != "" {
		if n, err := fmt.Sscanf(*topo, "%dx%d", &cfg.Topology.Nodes, &cfg.Topology.CoresPerNode); n != 2 || err != nil {
			return usage("-topo wants NxC (e.g. 4x2), got %q", *topo)
		}
	}
	if _, err := cfg.Topology.Resolve(*p); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	estimator := func(step int) refine.Estimator {
		if *problem == "corner" {
			return fem.InterpolationEstimator(fem.CornerSolution2D)
		}
		t := -0.5 + float64(step)/float64(max(*steps-1, 1))
		return fem.InterpolationEstimator(fem.TransientSolution(t))
	}
	coarsen := 0.0
	if *problem == "transient" {
		coarsen = *tol / 4
	}

	m0 := meshgen.RectTri(*grid, *grid, -1, -1, 1, 1)
	if *traceOn {
		cfg.Trace = par.NewPrinter(stderr).Println
	}
	// Its own variable: the collective check treats anything assigned from a
	// rank body as rank-dependent, and err gates the early returns above.
	runErr := par.Run(*p, func(c *par.Comm) {
		e := pared.BootstrapWith(c, m0, cfg)
		var totalMoved int64
		for step := 0; step < *steps; step++ {
			ast := e.Adapt(estimator(step), *tol, coarsen, 18)
			st := e.Rebalance(false)
			totalMoved += st.MovedElements
			if c.Rank() == 0 {
				fmt.Fprintf(stdout, "step %2d: %7d elements, %2d refine rounds", step, ast.GlobalLeaves, ast.Rounds)
				if st.Ran {
					fmt.Fprintf(stdout, ", rebalanced (moved %d elems, cut %d->%d, imb %.3f)",
						st.MovedElements, st.CutBefore, st.CutAfter, st.Imbalance)
				} else {
					fmt.Fprintf(stdout, ", balanced (imb %.3f)", st.Imbalance)
				}
				fmt.Fprintln(stdout)
			}
		}
		if err := e.CheckConsistency(); err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			fmt.Fprintf(stdout, "total migrated elements over run: %d\n", totalMoved)
		}
	})
	if runErr != nil {
		fmt.Fprintf(stderr, "pared: %v\n", runErr)
		return 1
	}
	return 0
}
