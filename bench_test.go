// Package pared's root benchmark suite: one benchmark per paper table/figure
// (at Quick scale so `go test -bench=.` completes in minutes; run
// cmd/pnrbench for paper-scale tables), plus microbenchmarks of the hot
// kernels and the ablation benches called out in DESIGN.md §5.
package pared

import (
	"fmt"
	"io"
	"testing"

	"pared/internal/core"
	"pared/internal/experiments"
	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/graph"
	"pared/internal/meshgen"
	"pared/internal/partition"
	"pared/internal/partition/diffusion"
	"pared/internal/partition/geometric"
	"pared/internal/partition/mlkl"
	"pared/internal/partition/rsb"
	"pared/internal/refine"
)

// --- One benchmark per table/figure -------------------------------------

func BenchmarkFig1Adaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig1(io.Discard, experiments.Quick, "")
	}
}

func BenchmarkFig3Quality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3(io.Discard, experiments.Quick)
	}
}

func BenchmarkFig4RSBMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4(io.Discard, experiments.Quick)
	}
}

func BenchmarkFig5PNRMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(io.Discard, experiments.Quick)
	}
}

func BenchmarkFig7Fig8Transient(b *testing.B) {
	cfg := experiments.DefaultTransient(experiments.Quick)
	for i := 0; i < b.N; i++ {
		experiments.Transient(io.Discard, cfg)
	}
}

func BenchmarkSection8Bound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Section8(io.Discard, experiments.Quick)
	}
}

func BenchmarkTheorem61Projection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Theorem61(io.Discard, experiments.Quick)
	}
}

func BenchmarkFig2EngineCycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.EngineDemo(io.Discard, experiments.Quick, "pnr")
	}
}

func BenchmarkFig2EngineCycleSFC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.EngineDemo(io.Discard, experiments.Quick, "sfc")
	}
}

// --- Microbenchmarks of the hot kernels ----------------------------------

// adapted builds a moderately refined corner mesh once per benchmark.
func adapted(b *testing.B, n int) (*forest.Forest, *refine.Refiner) {
	b.Helper()
	m0 := meshgen.RectTri(n, n, -1, -1, 1, 1)
	f := forest.FromMesh(m0)
	est := fem.InterpolationEstimator(fem.CornerSolution2D)
	r, _ := refine.AdaptToTolerance(f, est, 5e-3, 20, 10)
	return f, r
}

func BenchmarkRefinementClosure(b *testing.B) {
	m0 := meshgen.RectTri(24, 24, -1, -1, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := forest.FromMesh(m0)
		r := refine.NewRefiner(f)
		for _, id := range f.Leaves() {
			r.RefineLeaf(id)
		}
		b.StartTimer()
		r.Closure()
	}
	b.ReportMetric(float64(2*m0.NumElems()), "elems/op")
}

func BenchmarkLeafMeshExtraction(b *testing.B) {
	f, _ := adapted(b, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.LeafMesh()
	}
}

func BenchmarkCoarseDual(b *testing.B) {
	f, _ := adapted(b, 24)
	leaf := f.LeafMesh()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = graph.CoarseDual(24*24*2, leaf.Mesh, leaf.LeafRoot)
	}
}

func BenchmarkMLKLPartition(b *testing.B) {
	g := graph.FromDual(meshgen.RectTri(40, 40, -1, -1, 1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mlkl.Partition(g, 16, mlkl.Config{Seed: int64(i + 1)})
	}
}

func BenchmarkRSBPartition(b *testing.B) {
	g := graph.FromDual(meshgen.RectTri(40, 40, -1, -1, 1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rsb.Partition(g, 16, rsb.Config{Seed: int64(i + 1)})
	}
}

func BenchmarkPNRRepartition(b *testing.B) {
	f, r := adapted(b, 24)
	leaf := f.LeafMesh()
	g := graph.CoarseDual(24*24*2, leaf.Mesh, leaf.LeafRoot)
	owner := core.Partition(g, 16, core.Config{})
	// Refine a little more so there is something to rebalance.
	est := fem.InterpolationEstimator(fem.CornerSolution2D)
	refine.AdaptOnce(r, est, 2e-3, 0, 20)
	leaf = f.LeafMesh()
	g2 := graph.CoarseDual(24*24*2, leaf.Mesh, leaf.LeafRoot)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Repartition(g2, owner, 16, core.Config{})
	}
}

func BenchmarkGeometricRCB(b *testing.B) {
	m := meshgen.RectTri(40, 40, -1, -1, 1, 1)
	g := graph.FromDual(m)
	coords := make([]geom.Vec3, m.NumElems())
	for e := range coords {
		coords[e] = m.Centroid(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = geometric.Partition(g, coords, 16, geometric.RCB)
	}
}

func BenchmarkDiffusionRepartition(b *testing.B) {
	g, old := ablationSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = diffusion.Repartition(g, old, 8, diffusion.Config{})
	}
}

func BenchmarkLEPPRefinement(b *testing.B) {
	m0 := meshgen.RectTri(16, 16, -1, -1, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := forest.FromMesh(m0)
		r := refine.NewRefiner(f)
		leaves := f.Leaves()
		b.StartTimer()
		for _, id := range leaves {
			if f.Node(id).IsLeaf() {
				r.RefineLeafLEPP(id)
			}
		}
	}
}

func BenchmarkHungarian(b *testing.B) {
	const p = 64
	cost := make([][]int64, p)
	for i := range cost {
		cost[i] = make([]int64, p)
		for j := range cost[i] {
			cost[i][j] = int64((i*31 + j*17) % 97)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = partition.Hungarian(cost)
	}
}

func BenchmarkFEMSolveLaplace(b *testing.B) {
	m := meshgen.RectTri(24, 24, -1, -1, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fem.Solve(fem.Problem{Mesh: m, G: fem.CornerSolution2D}, 1e-8, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) --------------------------------------------

// ablationSetup builds a refinement-imbalance scenario on the coarse graph.
func ablationSetup(b *testing.B) (g *graph.Graph, old []int32) {
	b.Helper()
	m := meshgen.RectTri(24, 24, -1, -1, 1, 1)
	g = graph.FromDual(m)
	old = mlkl.Partition(g, 8, mlkl.Config{Seed: 11})
	for v := range g.VW {
		c := m.Centroid(v)
		if c.X > 0.4 && c.Y > 0.4 {
			g.VW[v] *= 6
		}
	}
	return g, old
}

// BenchmarkAblationGain compares PNR's 3-term gain against a cut-only gain
// (α = 0): the migration metric shows what the α term buys.
func BenchmarkAblationGain(b *testing.B) {
	g, old := ablationSetup(b)
	for _, alpha := range []float64{1e-12, 0.1, 1.0} {
		name := "alpha=0"
		if alpha > 1e-6 {
			name = fmt.Sprintf("alpha=%g", alpha)
		}
		b.Run(name, func(b *testing.B) {
			var mig int64
			for i := 0; i < b.N; i++ {
				newp := core.Repartition(g, old, 8, core.Config{Alpha: alpha})
				mig = partition.MigrationCost(g.VW, old, newp)
			}
			b.ReportMetric(float64(mig), "migrated-elems")
		})
	}
}

// BenchmarkAblationMatching compares same-part contraction (PNR's choice,
// implemented in core) against a from-scratch multilevel partition of the
// same graph followed by the migration-minimizing relabeling: the gap in the
// migrated-elems metric is Figure 4 vs Figure 5 in miniature.
func BenchmarkAblationMatching(b *testing.B) {
	g, old := ablationSetup(b)
	b.Run("pnr-samepart", func(b *testing.B) {
		var mig int64
		for i := 0; i < b.N; i++ {
			newp := core.Repartition(g, old, 8, core.Config{})
			mig = partition.MigrationCost(g.VW, old, newp)
		}
		b.ReportMetric(float64(mig), "migrated-elems")
	})
	b.Run("scratch-permuted", func(b *testing.B) {
		var mig int64
		for i := 0; i < b.N; i++ {
			newp := mlkl.Partition(g, 8, mlkl.Config{Seed: int64(i + 1)})
			newp = partition.MinMigrationRelabel(g.VW, old, newp, 8)
			mig = partition.MigrationCost(g.VW, old, newp)
		}
		b.ReportMetric(float64(mig), "migrated-elems")
	})
}
