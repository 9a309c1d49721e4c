// Transient tracking: the paper's §10 scenario — a disturbance (a sharp peak)
// moves across the domain; the mesh refines ahead of it and coarsens behind;
// PNR repartitions the coarse dual graph every step. Per step it prints the
// elements, the weight PNR moved (absolute and as a share of the elements),
// the coarse edge cut, the vertices shared between parts and the imbalance;
// at the end, the average share moved per step (12.39 % at these settings).
package main

import (
	"fmt"

	"pared/internal/core"
	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/graph"
	"pared/internal/meshgen"
	"pared/internal/partition"
	"pared/internal/refine"
)

func main() {
	const (
		steps = 20
		p     = 8
		tol   = 1e-2
	)
	m0 := meshgen.RectTri(20, 20, -1, -1, 1, 1)
	f := forest.FromMesh(m0)
	r := refine.NewRefiner(f)

	var owner []int32
	var totalMoved, totalElems int64
	fmt.Println("step      t   elements  moved  moved%  cut  sharedVerts  imbalance")
	for step := 0; step < steps; step++ {
		t := -0.5 + float64(step)/float64(steps-1)
		est := fem.InterpolationEstimator(fem.TransientSolution(t))
		for pass := 0; pass < 3; pass++ {
			if res := refine.AdaptOnce(r, est, tol, tol/4, 16); res.Flagged == 0 {
				break
			}
		}
		leaf := f.LeafMesh()
		g := graph.CoarseDual(m0.NumElems(), leaf.Mesh, leaf.LeafRoot)
		moved := int64(0)
		if owner == nil {
			owner = core.Partition(g, p, core.Config{})
			owner = core.Repartition(g, owner, p, core.Config{})
		} else {
			newOwner := core.Repartition(g, owner, p, core.Config{})
			moved = partition.MigrationCost(g.VW, owner, newOwner)
			owner = newOwner
		}
		fineParts := make([]int32, leaf.Mesh.NumElems())
		for e, root := range leaf.LeafRoot {
			fineParts[e] = owner[root]
		}
		n := int64(leaf.Mesh.NumElems())
		totalMoved += moved
		totalElems += n
		fmt.Printf("%4d  %+.2f  %9d  %5d  %5.1f%%  %4d  %11d  %.4f\n",
			step, t, n, moved, 100*float64(moved)/float64(n),
			partition.EdgeCut(g, owner), leaf.Mesh.SharedVertices(fineParts),
			partition.Imbalance(g, owner, p))
	}
	fmt.Printf("\naverage movement: %.2f%% of elements per step\n",
		100*float64(totalMoved)/float64(totalElems))
}
