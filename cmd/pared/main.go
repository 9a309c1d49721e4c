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
	"flag"
	"fmt"
	"os"
	"strings"

	"pared/internal/fem"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/pared"
	"pared/internal/refine"
)

func main() {
	p := flag.Int("p", 8, "number of ranks")
	problem := flag.String("problem", "corner", "corner|transient")
	algo := flag.String("algo", "pnr", "repartitioner: "+strings.Join(pared.AlgorithmNames(), "|")+" (sfc is coordinator-free, distrefine rank-splits the PNR refinement sweeps, hier partitions two-level over -topo)")
	topo := flag.String("topo", "", "hier topology as NxC (nodes x cores per node, N*C = -p); empty picks the most balanced factorization")
	penalty := flag.Float64("penalty", 0, "hier inter-node edge penalty (0 = default 4)")
	grid := flag.Int("grid", 20, "initial mesh resolution")
	steps := flag.Int("steps", 6, "adaptation steps")
	tol := flag.Float64("tol", 5e-3, "refinement tolerance")
	trigger := flag.Float64("trigger", 0.05, "imbalance triggering repartition")
	traceOn := flag.Bool("trace", false, "emit per-phase timings from every rank")
	flag.Parse()

	cfg, err := pared.ConfigByName(*algo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.ImbalanceTrigger = *trigger
	cfg.Topology.InterNodePenalty = *penalty
	if *topo != "" {
		if n, err := fmt.Sscanf(*topo, "%dx%d", &cfg.Topology.Nodes, &cfg.Topology.CoresPerNode); n != 2 || err != nil {
			fmt.Fprintf(os.Stderr, "pared: -topo wants NxC (e.g. 4x2), got %q\n", *topo)
			os.Exit(2)
		}
	}
	if _, err := cfg.Topology.Resolve(*p); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	estimator := func(step int) refine.Estimator {
		switch *problem {
		case "corner":
			return fem.InterpolationEstimator(fem.CornerSolution2D)
		case "transient":
			t := -0.5 + float64(step)/float64(maxi(*steps-1, 1))
			return fem.InterpolationEstimator(fem.TransientSolution(t))
		default:
			fmt.Fprintf(os.Stderr, "pared: unknown problem %q\n", *problem)
			os.Exit(2)
			return nil
		}
	}
	coarsen := 0.0
	if *problem == "transient" {
		coarsen = *tol / 4
	}

	m0 := meshgen.RectTri(*grid, *grid, -1, -1, 1, 1)
	tracePrinter := par.NewPrinter(os.Stderr)
	if *traceOn {
		cfg.Trace = tracePrinter.Println
	}
	err = par.Run(*p, func(c *par.Comm) {
		e := pared.BootstrapWith(c, m0, cfg)
		var totalMoved int64
		for step := 0; step < *steps; step++ {
			ast := e.Adapt(estimator(step), *tol, coarsen, 18)
			st := e.Rebalance(false)
			totalMoved += st.MovedElements
			if c.Rank() == 0 {
				fmt.Printf("step %2d: %7d elements, %2d refine rounds", step, ast.GlobalLeaves, ast.Rounds)
				if st.Ran {
					fmt.Printf(", rebalanced (moved %d elems, cut %d->%d, imb %.3f)",
						st.MovedElements, st.CutBefore, st.CutAfter, st.Imbalance)
				} else {
					fmt.Printf(", balanced (imb %.3f)", st.Imbalance)
				}
				fmt.Println()
			}
		}
		if err := e.CheckConsistency(); err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			fmt.Printf("total migrated elements over run: %d\n", totalMoved)
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pared: %v\n", err)
		os.Exit(1)
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
