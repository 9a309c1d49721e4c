package pared

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/refine"
)

// peakEst is a pure estimator concentrated at peak: large on big elements
// near it, small far away, so a peak that jumps leaves refinement behind for
// the coarsening to take back.
func peakEst(peak geom.Vec3) refine.Estimator {
	return refine.EstimatorFunc(func(f *forest.Forest, id forest.NodeID) float64 {
		n := f.Node(id)
		var c geom.Vec3
		for _, v := range n.Verts[:n.Nv()] {
			c = c.Add(f.Coords[v])
		}
		c = c.Scale(1 / float64(n.Nv()))
		return math.Pow(0.5, float64(n.Level)) / (0.05 + c.Dist2(peak))
	})
}

// spliceChain drives a seeded random adapt/coarsen/rebalance chain on p ranks
// and returns, per rank and epoch, a hash of the rank's leaf mesh and of the
// owner map after the rebalance. With rebuild set, the refiner migrate spliced
// is thrown away after every Rebalance and rebuilt from the forest. Without,
// the spliced refiner is held to its invariants each epoch: incidence equal to
// a rebuild's, no leaf edge marked split.
func spliceChain(t *testing.T, m *mesh.Mesh, cfg Config, p int, rebuild bool) (hashes [][]uint64, moved, coarsened int64) {
	t.Helper()
	const epochs = 8
	rng := rand.New(rand.NewSource(int64(41 + p)))
	type step struct {
		peak    geom.Vec3
		coarsen bool
		force   bool
	}
	steps := make([]step, epochs)
	for k := range steps {
		steps[k] = step{
			peak:    geom.Vec3{X: 2*rng.Float64() - 1, Y: 2*rng.Float64() - 1},
			coarsen: rng.Intn(3) > 0,
			force:   rng.Intn(3) > 0,
		}
		if m.Dim == 3 {
			steps[k].peak.Z = 2*rng.Float64() - 1
		}
	}
	maxLevel := int32(7)
	if m.Dim == 3 {
		maxLevel = 5
	}
	hashes = make([][]uint64, p)
	coarsenedBy := make([]int64, p)
	err := par.Run(p, func(c *par.Comm) {
		e := BootstrapWith(c, m, cfg)
		for _, s := range steps {
			coarsenTol := 0.0
			if s.coarsen {
				coarsenTol = 0.8
			}
			ast := e.Adapt(peakEst(s.peak), 1.6, coarsenTol, maxLevel)
			st := e.Rebalance(s.force)
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
		t.Fatal(err)
	}
	for _, n := range coarsenedBy {
		coarsened += n
	}
	return hashes, moved, coarsened
}

// TestMigrateSpliceMatchesRebuild: splicing migrated trees in and out of the
// live refiner must be indistinguishable from rebuilding it after every
// migration — same leaf mesh on every rank and same owner map, epoch by
// epoch — for every registered algorithm, in 2D and 3D, on 1, 3 and 8 ranks.
func TestMigrateSpliceMatchesRebuild(t *testing.T) {
	meshes := []struct {
		name string
		m    *mesh.Mesh
	}{
		{"2d", meshgen.RectTri(6, 6, -1, -1, 1, 1)},
		{"3d", meshgen.BoxTet(3, 3, 3, -1, -1, -1, 1, 1, 1)},
	}
	for _, tm := range meshes {
		for _, name := range AlgorithmNames() {
			cfg, err := ConfigByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", tm.name, name, p), func(t *testing.T) {
					spliced, moved, coarsened := spliceChain(t, tm.m, cfg, p, false)
					rebuilt, _, _ := spliceChain(t, tm.m, cfg, p, true)
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
				})
			}
		}
	}
}
