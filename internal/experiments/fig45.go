package experiments

import (
	"fmt"
	"io"

	"pared/internal/core"
	"pared/internal/fem"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"pared/internal/partition"
	"pared/internal/partition/mlkl"
	"pared/internal/partition/rsb"
	"pared/internal/partition/sfc"
	"pared/internal/refine"
)

// GrowthCase is the workload of Figures 4 and 5: a coarse mesh refined by an
// estimator through a ladder of target sizes (GrowthSeries), repartitioned
// for each processor count. DefaultGrowth and DefaultGrowth3D build it.
type GrowthCase struct {
	m0           *mesh.Mesh
	est          refine.Estimator
	sizes, procs []int
}

// DefaultGrowth returns the paper's 2D case (the paper: 5094, 11110, 23749,
// 49915, 103585 elements before refinement).
func DefaultGrowth(scale Scale) GrowthCase {
	est := fem.InterpolationEstimator(fem.CornerSolution2D)
	if scale == Quick {
		return GrowthCase{meshgen.RectTri(16, 16, -1, -1, 1, 1), est, []int{1200, 2500}, []int{4, 8, 16}}
	}
	return GrowthCase{meshgen.RectTri(34, 34, -1, -1, 1, 1), est,
		[]int{5100, 11100, 23700, 49900, 103600}, []int{4, 8, 16, 32, 64}}
}

// DefaultGrowth3D returns the tetrahedral case behind the paper's remark under
// Figure 4 that "similar results are obtained for 3D meshes".
func DefaultGrowth3D(scale Scale) GrowthCase {
	est := fem.InterpolationEstimator(fem.CornerSolution3D)
	if scale == Quick {
		return GrowthCase{meshgen.BoxTet(6, 6, 6, -1, -1, -1, 1, 1, 1), est, []int{2500, 5000}, []int{4, 8, 16}}
	}
	return GrowthCase{meshgen.BoxTet(8, 8, 8, -1, -1, -1, 1, 1, 1), est, []int{6000, 12000, 24000}, []int{4, 8, 16, 32}}
}

// Fig4 reproduces Figure 4: repartitioning a series of growing meshes with
// RSB. Each mesh M^{t−1} is balanced with RSB, refined slightly into M^t,
// and repartitioned from scratch with RSB; the migration columns show that
// RSB moves about half the mesh even for a tiny refinement, and the
// Biswas–Oliker permutation Π̃ recovers only part of it.
func Fig4(w io.Writer, c GrowthCase) {
	fig45(w, c, false)
}

// Fig5 reproduces Figure 5: the same series repartitioned with PNR, whose
// migration is orders of magnitude smaller and for which the permutation
// gains nothing (PNR already keeps subsets on their processors).
func Fig5(w io.Writer, c GrowthCase) {
	fig45(w, c, true)
}

// ThreeWay runs the Figure 4/5 growth series through the three repartitioners
// the engine can host — PNR (coordinator, migration-aware KL), SFC
// (coordinator-free Hilbert bands, snapped), and direct ML-KL (coordinator,
// no migration awareness) — reporting coarse-graph cut and migrated leaf
// fraction for each. All three maintain their assignment across the series,
// so the migration columns measure what each method moves under the same
// incremental growth. Cuts are weighted coarse cuts on the same graph, so
// the columns are directly comparable.
func ThreeWay(w io.Writer, scale Scale) {
	c := DefaultGrowth(scale)
	steps := GrowthSeries(c.m0, c.est, c.sizes, growthMaxLevel)
	t := &Table{
		Title: "PNR vs SFC vs ML-KL: cut and migrated leaf fraction on the growth series",
		Header: []string{"procs", "elems(t)",
			"cut PNR", "mig% PNR", "cut SFC", "mig% SFC", "cut MLKL", "mig% MLKL"},
	}
	keys := sfc.Keys(c.m0, sfc.Hilbert)
	order, _ := sfc.Order(keys)
	type owners struct{ pnr, sfcO, ml []int32 }
	byP := make([]owners, len(c.procs)) // by position in c.procs
	var scratch sfc.AssignScratch
	for _, step := range steps {
		for i, p := range c.procs {
			st := &byP[i]
			if st.pnr == nil {
				st.pnr = core.Partition(step.Prev.G, p, core.Config{})
				st.sfcO = sfc.Assign(order, step.Prev.G.VW, nil, p, false, nil, &scratch)
				st.sfcO = append([]int32(nil), st.sfcO...)
				st.ml = mlkl.Partition(step.Prev.G, p, mlkl.Config{})
			}
			g := step.Next.G
			total := g.TotalVW()
			migPct := func(old, new []int32) string {
				mig := partition.MigrationCost(g.VW, old, new)
				return fmt.Sprintf("%.1f", 100*float64(mig)/float64(total))
			}

			newPNR := core.Repartition(g, st.pnr, p, core.Config{})
			newSFC := sfc.Assign(order, g.VW, st.sfcO, p, true, nil, &scratch)
			newSFC = append([]int32(nil), newSFC...)
			// ML-KL partitions from scratch; relabel parts to minimize
			// migration (the Biswas–Oliker permutation) so the column shows
			// the method at its best rather than a labeling artifact.
			newML := mlkl.Partition(g, p, mlkl.Config{})
			newML = partition.MinMigrationRelabel(g.VW, st.ml, newML, p)

			t.AddRow(p, step.Next.Leaf.Mesh.NumElems(),
				partition.EdgeCut(g, newPNR), migPct(st.pnr, newPNR),
				partition.EdgeCut(g, newSFC), migPct(st.sfcO, newSFC),
				partition.EdgeCut(g, newML), migPct(st.ml, newML))
			st.pnr, st.sfcO, st.ml = newPNR, newSFC, newML
		}
	}
	t.Fprint(w)
}

func fig45(w io.Writer, c GrowthCase, usePNR bool) {
	steps := GrowthSeries(c.m0, c.est, c.sizes, growthMaxLevel)
	name, desc := "Figure 4", "RSB"
	if usePNR {
		name, desc = "Figure 5", "PNR (alpha=0.1, beta=0.8)"
	}
	t := &Table{
		Title: fmt.Sprintf("%s%s: migration cost repartitioning growing meshes with %s", name, dimTag(c.m0), desc),
		Header: []string{"procs", "elems(t-1)", "cut(t-1)", "elems(t)", "cut(t)",
			"migrate", "migrate(perm)", "mig%"},
	}
	// PNR maintains its assignment across the whole series, as PARED would:
	// each row's "balanced Π^{t−1}" is the previous row's partition
	// rebalanced on M^{t−1}.
	ownerByP := make([][]int32, len(c.procs)) // by position in c.procs
	for _, step := range steps {
		for i, p := range c.procs {
			if usePNR {
				owner := ownerByP[i]
				if owner == nil {
					owner = core.Partition(step.Prev.G, p, core.Config{})
				}
				owner = core.Repartition(step.Prev.G, owner, p, core.Config{})
				cutPrev := partition.EdgeCut(step.Prev.G, owner)
				newOwner := core.Repartition(step.Next.G, owner, p, core.Config{})
				ownerByP[i] = newOwner
				cutNext := partition.EdgeCut(step.Next.G, newOwner)
				mig := partition.MigrationCost(step.Next.G.VW, owner, newOwner)
				perm := partition.MinMigrationRelabel(step.Next.G.VW, owner, newOwner, p)
				migPerm := partition.MigrationCost(step.Next.G.VW, owner, perm)
				total := step.Next.G.TotalVW()
				t.AddRow(p, step.Prev.Leaf.Mesh.NumElems(), cutPrev,
					step.Next.Leaf.Mesh.NumElems(), cutNext, mig, migPerm,
					fmt.Sprintf("%.1f", 100*float64(mig)/float64(total)))
				continue
			}
			cfg := rsb.Config{Seed: 31}
			prevParts := rsb.Partition(step.Prev.Fine, p, cfg)
			cutPrev := partition.EdgeCut(step.Prev.Fine, prevParts)
			inherited := step.Next.InheritParts(prevParts)
			newParts := rsb.Partition(step.Next.Fine, p, cfg)
			cutNext := partition.EdgeCut(step.Next.Fine, newParts)
			mig := partition.MigrationCost(step.Next.Fine.VW, inherited, newParts)
			perm := partition.MinMigrationRelabel(step.Next.Fine.VW, inherited, newParts, p)
			migPerm := partition.MigrationCost(step.Next.Fine.VW, inherited, perm)
			total := step.Next.Fine.TotalVW()
			t.AddRow(p, step.Prev.Leaf.Mesh.NumElems(), cutPrev,
				step.Next.Leaf.Mesh.NumElems(), cutNext, mig, migPerm,
				fmt.Sprintf("%.1f", 100*float64(mig)/float64(total)))
		}
	}
	t.Fprint(w)
}
