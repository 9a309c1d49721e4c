package experiments

import (
	"fmt"
	"io"
	"math"

	"pared/internal/core"
	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/graph"
	"pared/internal/meshgen"
	"pared/internal/partition"
	"pared/internal/refine"
)

// Section8 validates the §8 analysis: when m new elements are created on a
// single processor P_o, rebalancing needs total (hop-weighted) movement of
// about Σ_j d_{o,j}·(m/p) along the processor graph Hᵗ — independent of the
// mesh size. The experiment creates exactly that situation, runs PNR, and
// compares measured migration against the estimate and against the paper's
// 2√p·m mesh-layout bound.
func Section8(w io.Writer, scale Scale) {
	gridN, procs := 32, []int{4, 8, 16, 32}
	if scale == Quick {
		gridN, procs = 16, []int{4, 8}
	}
	t := &Table{
		Title: "Section 8: migration vs the Hu–Blake-style lower estimate (PNR, refinement burst on one processor)",
		Header: []string{"procs", "elems", "m(new)", "estimate", "2*sqrt(p)*m",
			"PNR mig", "PNR hop-mig", "hop-mig/est"},
	}
	for _, p := range procs {
		m0 := meshgen.RectTri(gridN, gridN, -1, -1, 1, 1)
		f := forest.FromMesh(m0)
		r := refine.NewRefiner(f)
		// Pre-refine uniformly once so trees have a little depth.
		for _, id := range f.Leaves() {
			r.RefineLeaf(id)
		}
		r.Closure()
		snap := takeSnapshot(f, m0.NumElems(), nil)
		owner := core.Partition(snap.G, p, core.Config{})
		owner = core.Repartition(snap.G, owner, p, core.Config{})

		// Refinement burst confined to processor P_o: pick the processor
		// owning the region near the corner and refine only its trees.
		corner := geom.Vec3{X: 1, Y: 1}
		var po int32 = -1
		bestD := 0.0
		for root := range snap.G.VW {
			d := m0.Centroid(root).Dist2(corner)
			if po < 0 || d < bestD {
				po, bestD = owner[root], d
			}
		}
		est := fem.InterpolationEstimator(fem.CornerSolution2D)
		before := f.NumLeaves()
		for pass := 0; pass < 3; pass++ {
			var targets []forest.NodeID
			f.VisitLeaves(func(id forest.NodeID) {
				n := f.Node(id)
				if owner[n.Root] == po && est.Indicator(f, id) > 1e-4 {
					targets = append(targets, id)
				}
			})
			for _, id := range targets {
				r.RefineLeaf(id)
			}
			r.Closure()
		}
		snap2 := takeSnapshot(f, m0.NumElems(), nil)
		m := int64(f.NumLeaves() - before)

		h := graph.ProcGraph(snap2.G, owner, p)
		dist := h.AllPairsBFS()
		var estimate int64
		for j := 0; j < p; j++ {
			if int32(j) != po && dist[po][j] > 0 {
				estimate += int64(dist[po][j]) * (m / int64(p))
			}
		}
		newOwner := core.Repartition(snap2.G, owner, p, core.Config{})
		mig := partition.MigrationCost(snap2.G.VW, owner, newOwner)
		hopMig := partition.WeightedMigrationCost(snap2.G.VW, owner, newOwner, dist)
		ratio := float64(hopMig) / float64(max(estimate, 1))
		t.AddRow(p, snap2.Leaf.Mesh.NumElems(), m, estimate,
			fmt.Sprintf("%.0f", 2*math.Sqrt(float64(p))*float64(m)),
			mig, hopMig, fmt.Sprintf("%.2f", ratio))
	}
	t.Fprint(w)
}
