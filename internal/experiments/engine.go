package experiments

import (
	"fmt"
	"io"

	"pared/internal/fem"
	"pared/internal/geom"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/pared"
)

// EnginePhases is EngineDemo's cost breakdown: rank 0's cumulative wall time
// per repartitioning phase, and which registered algorithm produced it (a
// pared.AlgorithmNames entry). Cut is the edge cut after the last rebalance
// that ran, comparable across modes.
// The hierarchical pipeline additionally reports the split of P3's
// repartition time into its two levels (HierAMs + HierBMs, both inside P3Ms)
// and the cut decomposition Cut = InterCut + IntraCut, where only InterCut
// crosses node boundaries.
type EnginePhases struct {
	P1Ms, P2Ms, P3Ms   float64
	Mode               string
	HierAMs, HierBMs   float64
	Cut                int64
	InterCut, IntraCut int64
}

// EngineDemo drives the full distributed system (Figure 2's phases with real
// message passing: goroutine ranks, split-edge exchange, rebalance, tree
// migration) through a shortened transient run, reporting per-step global
// state. It demonstrates that the engine's migration behaviour matches the
// serial-path experiments. mode names the rebalance algorithm as registered
// in pared.ConfigByName ("" means "pnr").
func EngineDemo(w io.Writer, scale Scale, mode string) EnginePhases {
	gridN, steps, p, tol := 16, 8, 4, 1.5e-2
	if scale == Full {
		gridN, steps, p, tol = 24, 20, 8, 8e-3
	}
	m0 := meshgen.RectTri(gridN, gridN, -1, -1, 1, 1)
	return engineDemo(w, m0, steps, p, tol, mode, fem.TransientSolution,
		fmt.Sprintf("Distributed engine (p=%d, %s): transient tracking through PARED phases P0-P3", p, mode))
}

// EngineDemo3D is EngineDemo on a tetrahedral box with the peak sliding
// along the cube diagonal: the same distributed phases, but the SFC pipeline
// exercises the 3-axis quantization and the 63-bit 3D curve keys instead of
// the 62-bit 2D ones. Emitted as the engine_sfc_3d benchmark record so the
// 3D key path has its own wall-time and phase-timing trajectory.
func EngineDemo3D(w io.Writer, scale Scale, mode string) EnginePhases {
	gridN, steps, p, tol := 4, 6, 4, 3e-2
	if scale == Full {
		gridN, steps, p, tol = 8, 12, 8, 1.2e-2
	}
	m0 := meshgen.BoxTet(gridN, gridN, gridN, -1, -1, -1, 1, 1, 1)
	return engineDemo(w, m0, steps, p, tol, mode, transient3DSolutionAt,
		fmt.Sprintf("Distributed engine 3D (p=%d, %s): transient tracking through PARED phases P0-P3", p, mode))
}

// transient3DSolutionAt adapts transient3DSolution to the estimator shape
// shared with the 2D run.
func transient3DSolutionAt(t float64) func(geom.Vec3) float64 {
	return transient3DSolution(t)
}

// engineDemo is the shared driver behind EngineDemo and EngineDemo3D.
func engineDemo(w io.Writer, m0 *mesh.Mesh, steps, p int, tol float64, mode string, sol func(float64) func(geom.Vec3) float64, title string) EnginePhases {
	t := &Table{
		Title:  title,
		Header: []string{"step", "t", "elems", "rounds", "imb before", "moved elems", "moved trees", "imb after"},
	}
	if mode == "" {
		mode = "pnr"
	}
	ph := EnginePhases{Mode: mode}
	// Not named err: paredlint's rank taint is per variable, and the err that
	// par.Run assigns below would make this early return look rank-dependent.
	cfg, cfgErr := pared.ConfigByName(mode)
	if cfgErr != nil {
		fmt.Fprintf(w, "engine demo failed: %v\n", cfgErr)
		return ph
	}
	err := par.Run(p, func(c *par.Comm) {
		e := pared.BootstrapWith(c, m0, cfg)
		var lastCut, interCut, intraCut int64
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
			if st.Ran {
				lastCut, interCut, intraCut = st.CutAfter, st.InterCut, st.IntraCut
			}
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
			ph.P1Ms = float64(e.Phases.P1.Microseconds()) / 1000
			ph.P2Ms = float64(e.Phases.P2.Microseconds()) / 1000
			ph.P3Ms = float64(e.Phases.P3.Microseconds()) / 1000
			ph.HierAMs = float64(e.Phases.HierA.Microseconds()) / 1000
			ph.HierBMs = float64(e.Phases.HierB.Microseconds()) / 1000
			ph.InterCut, ph.IntraCut = interCut, intraCut
			// The final cut is comparable across modes; for hier it equals
			// InterCut + IntraCut, and only InterCut crosses node boundaries.
			ph.Cut = lastCut
		}
	})
	if err != nil {
		fmt.Fprintf(w, "engine demo failed: %v\n", err)
		return ph
	}
	t.Fprint(w)
	fmt.Fprintf(w, "phase totals (rank 0, %s): P1 %.3fms, P2 %.3fms, P3 %.3fms\n",
		ph.Mode, ph.P1Ms, ph.P2Ms, ph.P3Ms)
	return ph
}
