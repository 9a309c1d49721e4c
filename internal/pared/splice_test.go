package pared

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/graph"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/partition"
	"pared/internal/refine"
)

// centroid returns the barycenter of node id.
func centroid(f *forest.Forest, id forest.NodeID) geom.Vec3 {
	n := f.Node(id)
	var c geom.Vec3
	for _, v := range n.Verts[:n.Nv()] {
		c = c.Add(f.Coords[v])
	}
	return c.Scale(1 / float64(n.Nv()))
}

// peakEst is a pure estimator concentrated at peak: large on big elements
// near it, small far away, so a peak that jumps leaves refinement behind for
// the coarsening to take back.
func peakEst(peak geom.Vec3) refine.Estimator {
	return refine.EstimatorFunc(func(f *forest.Forest, id forest.NodeID) float64 {
		return math.Pow(0.5, float64(f.Node(id).Level)) / (0.05 + centroid(f, id).Dist2(peak))
	})
}

// frontEst is peakEst for a front: large on big elements near the plane
// through at with the given normal, which cuts across many trees at once.
func frontEst(at, normal geom.Vec3) refine.Estimator {
	return refine.EstimatorFunc(func(f *forest.Forest, id forest.NodeID) float64 {
		d := centroid(f, id).Sub(at).Dot(normal)
		return math.Pow(0.5, float64(f.Node(id).Level)) / (0.05 + 4*d*d)
	})
}

// chainStep is one epoch of a seeded random chain.
type chainStep struct {
	est     refine.Estimator // nil: solve the Laplace problem and adapt by its ZZ indicator
	coarsen bool
	force   bool
	algo    string // the registry row SetConfig switches to before the epoch; "" keeps the current one
}

// randomSteps draws a chain from rng. With switching set every epoch runs
// under a different registry row than the one before it and every row gets
// its turn; in 2D one epoch of such a chain takes its estimator from a solve.
func randomSteps(rng *rand.Rand, dim mesh.Dim, epochs int, switching bool) []chainStep {
	point := func() geom.Vec3 {
		v := geom.Vec3{X: 2*rng.Float64() - 1, Y: 2*rng.Float64() - 1}
		if dim == 3 {
			v.Z = 2*rng.Float64() - 1
		}
		return v
	}
	steps := make([]chainStep, epochs)
	for k := range steps {
		steps[k] = chainStep{est: peakEst(point()), coarsen: rng.Intn(3) > 0, force: rng.Intn(3) > 0}
		if switching && rng.Intn(3) == 0 {
			steps[k].est = frontEst(point().Scale(0.5), point())
		}
	}
	if switching {
		names := AlgorithmNames()
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		for k := range steps {
			steps[k].algo = names[k%len(names)]
		}
		if dim == 2 {
			steps[1+rng.Intn(epochs-1)].est = nil
		}
	}
	return steps
}

// checkEpochInvariants holds the engine, collectively, to everything that
// must be true between any two steps of a chain: the three interface
// derivations equal their facet-hash oracles and G equals graph.CoarseDual of
// the gathered forest (checkInterfaceOracle), G is symmetric and its vertex
// weights sum to the global leaf count, the owner map is total and in range,
// the rank's vertex slots live exactly as long as its nodes use them
// (forest.CheckVertices), CheckConsistency is clean and the gathered mesh is
// conformal. It returns G as the records give it, on every rank.
func checkEpochInvariants(e *Engine, globalLeaves int64) *graph.Graph {
	if err := e.F.CheckVertices(); err != nil {
		panic(fmt.Sprintf("rank %d: %v", e.Comm.Rank(), err))
	}
	g, gathered := checkInterfaceOracle(e)
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("G: %v", err))
	}
	if g.TotalVW() != globalLeaves {
		panic(fmt.Sprintf("ΣG.VW = %d, the mesh has %d leaves", g.TotalVW(), globalLeaves))
	}
	if len(e.Owner) != e.Coarse.NumElems() {
		panic(fmt.Sprintf("owner map has %d entries for %d trees", len(e.Owner), e.Coarse.NumElems()))
	}
	for r, o := range e.Owner {
		if o < 0 || int(o) >= e.Comm.Size() {
			panic(fmt.Sprintf("tree %d is owned by rank %d of %d", r, o, e.Comm.Size()))
		}
	}
	if err := e.CheckConsistency(); err != nil {
		panic(err)
	}
	if gathered != nil {
		if int64(gathered.NumLeaves()) != globalLeaves {
			panic(fmt.Sprintf("the gathered forest has %d leaves, Adapt counted %d", gathered.NumLeaves(), globalLeaves))
		}
		if err := gathered.LeafMesh().Mesh.CheckConforming(); err != nil {
			panic(err)
		}
	}
	return g
}

// checkCuts holds a rebalance's four cut statistics to full recounts for the
// owner maps before (old) and after it: on g, the G its records gave, or on
// the unit dual under the sfc strategy. InterCut and IntraCut are
// partition.TwoLevelCut's under hier and zero under every other strategy.
func checkCuts(e *Engine, g *graph.Graph, old []int32, st RebalanceStats) {
	var inter, intra int64
	switch e.cfg.strategy {
	case &sfcStrategy:
		g = graph.FromDual(e.Coarse)
	case &hierStrategy:
		inter, intra = partition.TwoLevelCut(g, e.Owner, int32(e.cfg.Topology.CoresPerNode))
	}
	before, after := partition.EdgeCut(g, old), partition.EdgeCut(g, e.Owner)
	if st.CutBefore != before || st.CutAfter != after || st.InterCut != inter || st.IntraCut != intra {
		panic(fmt.Sprintf("rank %d under %s: cuts %d -> %d (inter %d, intra %d), full recount %d -> %d (inter %d, intra %d)",
			e.Comm.Rank(), e.cfg.strategy.name, st.CutBefore, st.CutAfter, st.InterCut, st.IntraCut, before, after, inter, intra))
	}
}

// spliceChain drives the chain steps on p ranks, starting under cfg, and
// returns, per rank and epoch, a hash of the rank's leaf mesh and of the
// owner map after the rebalance. With rebuild set, the refiner migrate spliced
// is thrown away after every Rebalance and rebuilt from the forest. Without,
// the spliced refiner is held to its invariants each epoch — incidence equal
// to a rebuild's, no leaf edge marked split — the engine to
// checkEpochInvariants after every Adapt and every Rebalance, and every
// rebalance's cuts to checkCuts. A failure names the epoch each rank had
// reached and the algorithm it ran; the chain is a pure function of the
// subtest's name, which replays it.
func spliceChain(t *testing.T, m *mesh.Mesh, cfg Config, p int, steps []chainStep, rebuild bool) (hashes [][]uint64, moved, coarsened int64) {
	t.Helper()
	maxLevel := int32(7)
	if m.Dim == 3 {
		maxLevel = 5
	}
	hashes = make([][]uint64, p)
	coarsenedBy := make([]int64, p)
	reached := make([]string, p)
	err := par.Run(p, func(c *par.Comm) {
		e := BootstrapWith(c, m, cfg)
		algo := "the starting configuration"
		for k, s := range steps {
			if s.algo != "" {
				next, err := ConfigByName(s.algo)
				if err != nil {
					panic(err)
				}
				if err := e.SetConfig(next); err != nil {
					panic(err)
				}
				algo = s.algo
			}
			reached[c.Rank()] = fmt.Sprintf("epoch %d under %s", k, algo)
			est, refineTol, coarsenTol := s.est, 1.6, 0.8
			if est == nil {
				sol, err := e.SolveLaplace(nil, fem.CornerSolution2D, 1e-8, 5000)
				if err != nil {
					panic(err)
				}
				est = e.ZZEstimator(sol)
				// Tolerances relative to the largest indicator anywhere, agreed
				// on through an integer reduction so every rank uses the same.
				top := 0.0
				e.F.VisitLeaves(func(id forest.NodeID) { top = math.Max(top, est.Indicator(e.F, id)) })
				scaled, _ := c.AllReduceMaxSum(int64(top * 1e9))
				refineTol, coarsenTol = 0.3*float64(scaled)/1e9, 0.05*float64(scaled)/1e9
			}
			if !s.coarsen {
				coarsenTol = 0
			}
			ast := e.Adapt(est, refineTol, coarsenTol, maxLevel)
			var g *graph.Graph
			if !rebuild {
				g = checkEpochInvariants(e, ast.GlobalLeaves)
			}
			old := slices.Clone(e.Owner)
			st := e.Rebalance(s.force)
			if !rebuild && st.Ran {
				checkCuts(e, g, old, st)
			}
			if rebuild {
				e.R = refine.NewRefiner(e.F)
			} else {
				if err := e.R.CheckInvariants(); err != nil {
					panic(err)
				}
				e.F.VisitLeaves(func(id forest.NodeID) {
					n := e.F.Node(id)
					for i, a := range n.Verts[:n.Nv()] {
						for _, b := range n.Verts[i+1 : n.Nv()] {
							if e.R.IsSplit(refine.MakeEdgeSplit(e.F.VIDs[a], e.F.VIDs[b])) {
								panic(fmt.Sprintf("leaf %d has an edge marked split after Rebalance", id))
							}
						}
					}
				})
				checkEpochInvariants(e, ast.GlobalLeaves)
			}
			if err := e.CheckConsistency(); err != nil {
				panic(err)
			}
			h := fnv.New64a()
			var w [8]byte
			for _, leaf := range e.F.CanonicalLeaves() {
				for _, v := range leaf {
					binary.LittleEndian.PutUint64(w[:], uint64(v))
					h.Write(w[:])
				}
			}
			for _, o := range e.Owner {
				binary.LittleEndian.PutUint32(w[:4], uint32(o))
				h.Write(w[:4])
			}
			hashes[c.Rank()] = append(hashes[c.Rank()], h.Sum64())
			if c.Rank() == 0 {
				moved += st.MovedTrees // global, the same on every rank
			}
			coarsenedBy[c.Rank()] += int64(ast.LocalCoarsened)
		}
	})
	if err != nil {
		t.Fatalf("%s (rebuild=%v), ranks had reached %q: %v", t.Name(), rebuild, reached, err)
	}
	for _, n := range coarsenedBy {
		coarsened += n
	}
	return hashes, moved, coarsened
}

// TestMigrateSpliceMatchesRebuild is the randomized epoch driver. Every
// subtest is a seeded chain of random estimator fields, refinement and
// coarsening, forced and trigger-gated rebalances, run twice: once as the
// engine runs it and once with the refiner rebuilt from the forest after every
// migration. Splicing migrated trees in and out of the live refiner must be
// indistinguishable from that rebuild — same leaf mesh on every rank and same
// owner map, epoch by epoch — and the first run must keep checkEpochInvariants
// after every step and report every rebalance's CutBefore, CutAfter, InterCut
// and IntraCut equal to full recounts (checkCuts). <dim>/<algorithm>/p=N
// chains stay under one registry row; <dim>/switch/p=N chains move to another
// row before every epoch, through all of them, and in 2D take one epoch's
// estimator from SolveLaplace and ZZEstimator.
func TestMigrateSpliceMatchesRebuild(t *testing.T) {
	meshes := []struct {
		name string
		m    *mesh.Mesh
	}{
		{"2d", meshgen.RectTri(6, 6, -1, -1, 1, 1)},
		{"3d", meshgen.BoxTet(3, 3, 3, -1, -1, -1, 1, 1, 1)},
	}
	const epochs = 8
	run := func(t *testing.T, m *mesh.Mesh, cfg Config, p int, switching bool) {
		steps := func() []chainStep { // drawn afresh per run: the estimators are pure, the draw is the same
			return randomSteps(rand.New(rand.NewSource(int64(41+p))), m.Dim, epochs, switching)
		}
		spliced, moved, coarsened := spliceChain(t, m, cfg, p, steps(), false)
		rebuilt, _, _ := spliceChain(t, m, cfg, p, steps(), true)
		for r := range spliced {
			for k := range spliced[r] {
				if spliced[r][k] != rebuilt[r][k] {
					t.Fatalf("rank %d epoch %d: leaf mesh or owner map differs from the rebuild-every-time chain", r, k)
				}
			}
		}
		if p > 1 && moved == 0 {
			t.Error("the chain never migrated a tree; the comparison proved nothing")
		}
		if coarsened == 0 {
			t.Error("the chain never coarsened; the comparison proved nothing")
		}
	}
	for _, tm := range meshes {
		for _, name := range AlgorithmNames() {
			cfg, err := ConfigByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", tm.name, name, p), func(t *testing.T) { run(t, tm.m, cfg, p, false) })
			}
		}
		for _, p := range []int{1, 2, 3, 5, 8} {
			t.Run(fmt.Sprintf("%s/switch/p=%d", tm.name, p), func(t *testing.T) { run(t, tm.m, Config{}, p, true) })
		}
	}
}
