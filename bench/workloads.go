package main

import (
	"math"

	"pared/internal/fem"
	"pared/internal/geom"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"pared/internal/pared"
	"pared/internal/refine"
)

// benchRanks is the rank count of every workload. The sandbox has two cores,
// so every run is oversubscribed: the report says so and emits no scaling
// metric.
const benchRanks = 8

type fieldKind int

const (
	// fieldPeak is the paper's §10 transient: the peak 1/(1+100r²) travelling
	// along a diameter of the domain, one step per epoch.
	fieldPeak fieldKind = iota
	// fieldCorner is the paper's §6 harmonic solution, singular at one corner.
	fieldCorner
)

// workload is one named set of inputs. An epoch is
//
//	[SolveLaplace → ZZEstimator]  passes × Adapt(tol_k)  Rebalance(false)
//
// with tol_k = tol·tolDecay^k. Sizes are part of the workload's identity: a
// run that is too slow lowers reps, never these numbers.
type workload struct {
	name, why string

	dim, grid int // RectTri(grid,grid) on (−1,1)² or BoxTet(grid³) on (−1,1)³
	ranks     int
	cfg       pared.Config

	field fieldKind
	solve bool // the estimator comes from a distributed solve, not the analytic field

	epochs, passes int
	tol, tolDecay  float64
	coarsen        float64 // coarsening tolerance as a fraction of tol_k; 0 = refine only
	maxLevel       int32

	// probeEvery spaces the traced pass's probe epochs (1 = every epoch).
	probeEvery int
	// maxLinf bounds the final L∞ error of a solve workload; it is one of the
	// output checks.
	maxLinf float64
}

// workloads is the fixed list; BENCHMARK.json names the same seven.
var workloads = []workload{
	{
		name: "transient2d_pnr",
		why:  "paper §10 on the default pipeline: core+graph decision on rank 0 and par gather/bcast dominate; hierarchy rebuilds sit in the tail",
		dim:  2, grid: 40, cfg: pared.Config{},
		field: fieldPeak, epochs: 100, passes: 3, tol: 4e-3, tolDecay: 1, coarsen: 0.25, maxLevel: 16, probeEvery: 10,
	},
	{
		name: "transient2d_sfc",
		why:  "same inputs, curve bands: bypasses core/graph, so refine/forest adapt cost is the largest share; no core change should move it",
		dim:  2, grid: 40, cfg: pared.Config{Mode: pared.ModeSFC},
		field: fieldPeak, epochs: 100, passes: 3, tol: 4e-3, tolDecay: 1, coarsen: 0.25, maxLevel: 16, probeEvery: 10,
	},
	{
		name: "transient2d_dist",
		why:  "same inputs, KL sweeps run collectively on every rank through AllGatherMoves instead of serially on the coordinator",
		dim:  2, grid: 40, cfg: pared.Config{DistRefine: true},
		field: fieldPeak, epochs: 100, passes: 3, tol: 4e-3, tolDecay: 1, coarsen: 0.25, maxLevel: 16, probeEvery: 10,
	},
	{
		name: "transient2d_hier",
		why:  "same inputs, 2x4 node x core pipeline: the only user of Comm.Split sub-communicators and the hierarchical delta exchange",
		dim:  2, grid: 40, cfg: pared.Config{Mode: pared.ModeHier},
		field: fieldPeak, epochs: 100, passes: 3, tol: 4e-3, tolDecay: 1, coarsen: 0.25, maxLevel: 16, probeEvery: 10,
	},
	{
		name: "deeptree2d_pnr",
		why:  "tiny coarse graph, deep trees, a large share of the mesh migrating each epoch: forest codec, AlltoallBytes and refine+coarsen do the work, core is minor",
		dim:  2, grid: 16, cfg: pared.Config{},
		field: fieldPeak, epochs: 30, passes: 3, tol: 2e-4, tolDecay: 1, coarsen: 0.25, maxLevel: 20, probeEvery: 3,
	},
	{
		name: "growth3d_sfc",
		why:  "tetrahedral bisection and closure, 3-axis Hilbert keys and large payloads under monotone growth (writes only, no coarsening)",
		dim:  3, grid: 8, cfg: pared.Config{Mode: pared.ModeSFC},
		field: fieldCorner, epochs: 12, passes: 1, tol: 2e-2, tolDecay: 0.6, maxLevel: 20, probeEvery: 1,
	},
	{
		name: "solvecycle2d_pnr",
		why:  "the full self-contained cycle solve->estimate->adapt->rebalance: la/fem/kern and par's per-iteration latency path carry the time",
		dim:  2, grid: 34, cfg: pared.Config{},
		field: fieldCorner, solve: true, epochs: 19, passes: 1, tol: 3e-2, tolDecay: 0.7, maxLevel: 20, probeEvery: 1,
		maxLinf: 5e-3,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// shrunk returns a copy small enough for the unit tests: same pipeline and
// epoch shape, a grid of 8 (4 in 3D), three epochs, four ranks.
func (w workload) shrunk() workload {
	w.grid = 8
	if w.dim == 3 {
		w.grid = 4
	}
	w.epochs, w.ranks, w.probeEvery = 3, 4, 1
	if w.tol < 4e-3 {
		w.tol = 4e-3 // deeptree's tolerance would build 10^4 leaves on 128 trees
	}
	w.maxLinf = 0.5
	return w
}

func (w *workload) numRanks() int {
	if w.ranks > 0 {
		return w.ranks
	}
	return benchRanks
}

func (w *workload) mesh() *mesh.Mesh {
	if w.dim == 3 {
		return meshgen.BoxTet(w.grid, w.grid, w.grid, -1, -1, -1, 1, 1, 1)
	}
	return meshgen.RectTri(w.grid, w.grid, -1, -1, 1, 1)
}

func (w *workload) epochTol(k int) float64 {
	return w.tol * math.Pow(w.tolDecay, float64(k))
}

func (w *workload) probeEpoch(k int) bool { return k%w.probeEvery == 0 }

// geometry is one input instance. A seed names a sequence of instances:
// every timed rep of a run measures the next one, so that a run's numbers
// average over instances instead of describing one of them (the partitioner's
// decisions amplify a one-element difference into a few percent of cut,
// migration and time). Instance 0 of seed 1 is the paper's geometry: the peak
// on the main diagonal, the corner solution as published. Every other
// instance turns the peak's path about the origin, starts it a fraction of a
// step later, and slides the corner solution's oscillation along x−y. The
// engine sees only the generated mesh and the estimator closures built from
// this.
type geometry struct {
	rot   float64 // rotation of the peak's path, radians
	phase float64 // sub-step shift of the peak along its path, in [0,1) steps
	slide float64 // shift of the corner solution along (1,−1), in coarse cells
}

// An instance perturbs the input, not its class. Measured over ten
// geometries: turning the path freely spreads cut_mean by 13 % and wall_s by
// 4.5 % (along a mesh diagonal vs across it; even a half turn shifts alloc_mb
// by 10 %), against 5 % and 2 % for turns within maxTurn. Reflecting the
// corner problem onto another corner gives three distinct migrated_frac
// levels in 2D, and sliding it by a whole cell makes wall_s of growth3d_sfc
// bimodal, 7 % apart.
const (
	maxTurn  = 2 * math.Pi / 180
	maxSlide = 0.125
)

func geometryFor(seed int64, instance int) geometry {
	if seed == 1 && instance == 0 {
		return geometry{}
	}
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(instance)*0xd1342543de82ef95
	unit := func() float64 { // splitmix64, top 53 bits
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / (1 << 53)
	}
	return geometry{rot: (2*unit() - 1) * maxTurn, phase: unit(), slide: unit() * maxSlide}
}

// peakAt returns the transient field at epoch k of n: fem.TransientSolution
// evaluated in the frame turned back by rot.
func (g geometry) peakAt(k, n int) func(geom.Vec3) float64 {
	t := -0.5 + (float64(k)+g.phase)/float64(n-1)
	u := fem.TransientSolution(t)
	cs, sn := math.Cos(g.rot), math.Sin(g.rot)
	return func(p geom.Vec3) float64 {
		return u(geom.Vec3{X: cs*p.X + sn*p.Y, Y: cs*p.Y - sn*p.X})
	}
}

// corner returns the corner solution slid along (1,−1) by slide cells of
// width h. A translate of a harmonic function is harmonic, and the slide
// leaves x+y, hence the boundary layer's strength, alone.
func (g geometry) corner(dim int, h float64) func(geom.Vec3) float64 {
	u := fem.CornerSolution2D
	if dim == 3 {
		u = fem.CornerSolution3D
	}
	d := g.slide * h
	return func(p geom.Vec3) float64 {
		return u(geom.Vec3{X: p.X - d, Y: p.Y + d, Z: p.Z})
	}
}

// field is the workload's corner solution under g (solve workloads use it as
// Dirichlet data and as the reference of the L∞ check).
func (w *workload) cornerField(g geometry) func(geom.Vec3) float64 {
	return g.corner(w.dim, 2/float64(w.grid))
}

// analyticEstimator is the epoch-k estimator of a workload that does not solve.
func (w *workload) analyticEstimator(g geometry, k int) refine.Estimator {
	if w.field == fieldPeak {
		return fem.InterpolationEstimator(g.peakAt(k, w.epochs))
	}
	return fem.InterpolationEstimator(w.cornerField(g))
}
