package experiments

import (
	"fmt"
	"io"
	"time"

	"pared/internal/fem"
	"pared/internal/geom"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/pared"
)

// EngineDemo drives the full distributed system (Figure 2's phases with real
// message passing: goroutine ranks, split-edge exchange, rebalance, tree
// migration) through a shortened transient run, reporting per step the
// global leaf count, adaptation rounds, imbalance before and after the
// rebalance and the trees and elements it moved, then rank 0's phase totals;
// the run ends with Engine.CheckConsistency. It shows the engine running the
// whole cycle under one algorithm; nothing compares its numbers with the
// serial-path experiments (ROADMAP item 4). mode names the rebalance
// algorithm as registered in pared.ConfigByName ("" means "pnr").
func EngineDemo(w io.Writer, scale Scale, mode string) {
	gridN, steps, p, tol := 16, 8, 4, 1.5e-2
	if scale == Full {
		gridN, steps, p, tol = 24, 20, 8, 8e-3
	}
	m0 := meshgen.RectTri(gridN, gridN, -1, -1, 1, 1)
	engineDemo(w, m0, steps, p, tol, mode, fem.TransientSolution,
		fmt.Sprintf("Distributed engine (p=%d, %s): transient tracking through PARED phases P0-P3", p, mode))
}

// EngineDemo3D is EngineDemo on a tetrahedral box with the peak sliding
// along the cube diagonal: the same distributed phases, but the SFC pipeline
// exercises the 3-axis quantization and the 63-bit 3D curve keys instead of
// the 62-bit 2D ones.
func EngineDemo3D(w io.Writer, scale Scale, mode string) {
	gridN, steps, p, tol := 4, 6, 4, 3e-2
	if scale == Full {
		gridN, steps, p, tol = 8, 12, 8, 1.2e-2
	}
	m0 := meshgen.BoxTet(gridN, gridN, gridN, -1, -1, -1, 1, 1, 1)
	engineDemo(w, m0, steps, p, tol, mode, transient3DSolution,
		fmt.Sprintf("Distributed engine 3D (p=%d, %s): transient tracking through PARED phases P0-P3", p, mode))
}

// engineDemo is the shared driver behind EngineDemo and EngineDemo3D.
func engineDemo(w io.Writer, m0 *mesh.Mesh, steps, p int, tol float64, mode string, sol func(float64) func(geom.Vec3) float64, title string) {
	t := &Table{
		Title:  title,
		Header: []string{"step", "t", "elems", "rounds", "imb before", "moved elems", "moved trees", "imb after"},
	}
	if mode == "" {
		mode = "pnr"
	}
	var phases pared.PhaseDurations // rank 0's
	cfg, cfgErr := pared.ConfigByName(mode)
	if cfgErr != nil {
		fmt.Fprintf(w, "engine demo failed: %v\n", cfgErr)
		return
	}
	err := par.Run(p, func(c *par.Comm) {
		e := pared.BootstrapWith(c, m0, cfg)
		for step := 0; step < steps; step++ {
			tt := -0.5 + float64(step)/float64(steps-1)
			est := fem.InterpolationEstimator(sol(tt))
			var ast pared.AdaptStats
			for pass := 0; pass < 3; pass++ {
				ast2 := e.Adapt(est, tol, tol/4, 16)
				ast.Rounds += ast2.Rounds
				ast.GlobalLeaves = ast2.GlobalLeaves
			}
			before := e.Imbalance()
			st := e.Rebalance(false)
			if c.Rank() == 0 {
				t.AddRow(step, fmt.Sprintf("%.2f", tt), ast.GlobalLeaves, ast.Rounds,
					fmt.Sprintf("%.3f", before), st.MovedElements, st.MovedTrees,
					fmt.Sprintf("%.3f", st.Imbalance))
			}
		}
		if err := e.CheckConsistency(); err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			phases = e.Phases
		}
	})
	if err != nil {
		fmt.Fprintf(w, "engine demo failed: %v\n", err)
		return
	}
	t.Fprint(w)
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	fmt.Fprintf(w, "phase totals (rank 0, %s): P1 %.3fms, P2 %.3fms, P3 %.3fms\n",
		mode, ms(phases.P1), ms(phases.P2), ms(phases.P3))
}
