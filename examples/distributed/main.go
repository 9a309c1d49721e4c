// Distributed: PARED's full message-passing pipeline (Figure 2) on goroutine
// ranks — bootstrap from a coordinator-computed partition, distributed
// conformal refinement with cross-rank split propagation, and the P1–P3
// weight-gather / PNR-repartition / tree-migration cycle.
package main

import (
	"fmt"
	"log"

	"pared/internal/fem"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/pared"
)

func main() {
	const p = 6
	m0 := meshgen.RectTri(16, 16, -1, -1, 1, 1)
	err := par.Run(p, func(c *par.Comm) {
		e := pared.Bootstrap(c, m0)
		est := fem.InterpolationEstimator(fem.CornerSolution2D)
		for step := 0; step < 4; step++ {
			ast := e.Adapt(est, 4e-3, 0, 14)
			imb := e.Imbalance()
			st := e.Rebalance(false)
			if c.Rank() == 0 {
				fmt.Printf("step %d: %6d elements (refine rounds %d), imbalance %.3f",
					step, ast.GlobalLeaves, ast.Rounds, imb)
				if st.Ran {
					fmt.Printf(" -> rebalanced: moved %d elements in %d trees, cut %d -> %d, imbalance %.3f",
						st.MovedElements, st.MovedTrees, st.CutBefore, st.CutAfter, st.Imbalance)
				}
				fmt.Println()
			}
		}
		if err := e.CheckConsistency(); err != nil {
			panic(err)
		}
		// Solve the PDE on the distributed mesh: per-rank assembly, summed
		// interface contributions, CG with global reductions.
		sol, err := e.SolveLaplace(nil, fem.CornerSolution2D, 1e-9, 10000)
		if err != nil {
			panic(err)
		}
		worst := 0.0
		for i := range sol.U {
			d := sol.U[i] - fem.CornerSolution2D(sol.Mesh.Mesh.Verts[i])
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
		maxErr, _ := c.AllReduceMaxSum(int64(worst * 1e9))
		if c.Rank() == 0 {
			fmt.Printf("distributed FEM solve: %d CG iterations, L_inf error vs analytic %.2e\n",
				sol.Iterations, float64(maxErr)/1e9)
		}
		// Verify the distributed mesh equals its serial counterpart.
		g := e.GatherForest(0)
		if c.Rank() == 0 {
			lm := g.LeafMesh().Mesh
			if err := lm.Validate(); err != nil {
				panic(err)
			}
			if err := lm.CheckConforming(); err != nil {
				panic(err)
			}
			fmt.Printf("final mesh: %d elements, conforming across all %d ranks\n", lm.NumElems(), p)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}
