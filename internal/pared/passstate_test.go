package pared

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/refine"
)

// stateHash hashes everything adaptation and migration decide on a rank: every
// field of every node slot, dead ones included, the vertex IDs, the bits of
// the coordinates and the owner map. Two chains whose hashes agree made the
// same bisections and un-bisections in the same order.
func stateHash(e *Engine) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	i32 := func(x int32) { put(uint64(uint32(x))) }
	put(uint64(len(e.F.Nodes)))
	for _, n := range e.F.Nodes {
		for _, v := range n.Verts {
			i32(v)
		}
		i32(int32(n.Parent))
		i32(int32(n.Kids[0]))
		i32(int32(n.Kids[1]))
		i32(n.Root)
		i32(n.Level)
		i32(n.RefEdge[0])
		i32(n.RefEdge[1])
		i32(n.MidV)
		if n.Dead {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint64(len(e.F.VIDs)))
	for _, id := range e.F.VIDs {
		put(uint64(id))
	}
	put(uint64(len(e.F.Coords)))
	for _, c := range e.F.Coords {
		put(math.Float64bits(c.X))
		put(math.Float64bits(c.Y))
		put(math.Float64bits(c.Z))
	}
	for _, o := range e.Owner {
		i32(o)
	}
	return h.Sum64()
}

// movingPeak3D is a smooth bump of width w centred at c.
func movingPeak3D(c geom.Vec3, w float64) func(geom.Vec3) float64 {
	return func(p geom.Vec3) float64 { return math.Exp(-p.Dist2(c) / (w * w)) }
}

// pingPong adds to inner a bump on the root node of tree root. Every pass
// then refines that tree's root, finds its children and those of its
// neighbour across the bisected edge below the coarsening tolerance, and
// coarsens them away again: each pass of an epoch refines and coarsens.
type pingPong struct {
	inner refine.Estimator
	root  int32
}

func (e *pingPong) Indicator(f *forest.Forest, id forest.NodeID) float64 {
	v := e.inner.Indicator(f, id)
	if n := f.Node(id); n.Root == e.root && n.Level == 0 {
		v++
	}
	return v
}

// nearestRoot returns the element of m whose centroid is nearest to p.
func nearestRoot(m *mesh.Mesh, p geom.Vec3) int32 {
	best, bestD := int32(-1), math.Inf(1)
	for i, el := range m.Elems {
		var c geom.Vec3
		nv := m.FacetsPerElem()
		for _, v := range el.V[:nv] {
			c = c.Add(m.Verts[v].Scale(1 / float64(nv)))
		}
		if d := c.Dist2(p); d < bestD {
			best, bestD = int32(i), d
		}
	}
	return best
}

// passCase is one estimator series of passChain: the estimator of epoch k of
// epochs, the refinement tolerance (coarsening at a quarter of it) and the
// level cap.
type passCase struct {
	estAt    func(k, epochs int) refine.Estimator
	tol      float64
	maxLevel int32
}

// passChain is the cycle benchmark's epoch at test scale: per epoch one
// estimator, three Adapt passes with coarsening at a quarter of the
// tolerance, and a Rebalance, forced every other epoch. With wrap set every
// pass gets an EstimatorFunc wrapper of the epoch's estimator, which is never
// compared and so takes the full path of every sweep and every coarsening. It
// returns per rank the state hash after every Adapt and Rebalance, and the
// global un-bisections of the second and third passes.
func passChain(t *testing.T, m *mesh.Mesh, pc passCase, cfg Config, p int, wrap bool) (hashes [][]uint64, later int64) {
	const epochs, passes = 6, 3
	hashes = make([][]uint64, p)
	err := par.Run(p, func(c *par.Comm) {
		e := BootstrapWith(c, m, cfg)
		var mine []uint64
		var coarsened int64
		for k := 0; k < epochs; k++ {
			est := pc.estAt(k, epochs)
			if wrap {
				est = refine.EstimatorFunc(est.Indicator)
			}
			for pass := 0; pass < passes; pass++ {
				st := e.Adapt(est, pc.tol, pc.tol/4, pc.maxLevel)
				if pass > 0 {
					coarsened += int64(st.LocalCoarsened)
				}
				mine = append(mine, stateHash(e))
			}
			e.Rebalance(k%2 == 1)
			mine = append(mine, stateHash(e))
		}
		hashes[c.Rank()] = mine
		if s := c.AllReduceSumInt64(coarsened); c.Rank() == 0 {
			later = s
		}
	})
	if err != nil {
		t.Fatalf("p=%d wrapped=%v: %v", p, wrap, err)
	}
	return hashes, later
}

// TestRepeatedPassStateIdentity runs passChain with the epoch's estimator
// shared by its three passes, so the second and third pass take the
// refiner's shortcuts (the target sweep examines only the leaves born since,
// the coarsening runs only on a new candidate), and with an uncomparable
// wrapper that never takes them: every rank's whole node table, vertex table
// and owner map must agree after every Adapt and Rebalance. The canonical leaf
// mesh alone would not tell a different bisection order apart. The estimators
// are the interpolation error of the moving peak in 2D and of a moving bump in
// 3D, and in the ping-pong series the 2D peak plus pingPong's bump on a corner
// tree, whose second and third passes must coarsen: the shortcut's check must
// fall back to Coarsen there, and the state must still agree.
func TestRepeatedPassStateIdentity(t *testing.T) {
	rect := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	corner := nearestRoot(rect, geom.Vec3{X: 0.9, Y: -0.9})
	at := func(k, epochs int) float64 { return -0.6 + 1.2*float64(k)/float64(epochs-1) }
	peak2D := func(k, epochs int) refine.Estimator {
		return fem.InterpolationEstimator(fem.TransientSolution(at(k, epochs)))
	}
	cases := []struct {
		name     string
		m        *mesh.Mesh
		pc       passCase
		pingPong bool
	}{
		{"2d", rect, passCase{peak2D, 4e-3, 12}, false},
		{"3d", meshgen.BoxTet(2, 2, 2, -1, -1, -1, 1, 1, 1), passCase{func(k, epochs int) refine.Estimator {
			s := at(k, epochs)
			return fem.InterpolationEstimator(movingPeak3D(geom.Vec3{X: s, Y: s / 2, Z: -s}, 0.3))
		}, 4e-2, 8}, false},
		{"2d-pingpong", rect, passCase{func(k, epochs int) refine.Estimator {
			return &pingPong{peak2D(k, epochs), corner}
		}, 4e-3, 12}, true},
	}
	for _, tc := range cases {
		for _, name := range []string{"pnr", "sfc", "distrefine", "hier"} {
			cfg, err := ConfigByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", tc.name, name, p), func(t *testing.T) {
					shared, later := passChain(t, tc.m, tc.pc, cfg, p, false)
					wrapped, _ := passChain(t, tc.m, tc.pc, cfg, p, true)
					for r := range shared {
						for i := range shared[r] {
							if shared[r][i] != wrapped[r][i] {
								t.Fatalf("rank %d: state differs from the full path's after step %d (3 Adapts and a Rebalance per epoch)", r, i)
							}
						}
					}
					if tc.pingPong && later == 0 {
						t.Error("no second or third pass coarsened: the check that falls back to Coarsen is untested")
					}
				})
			}
		}
	}
}

// TestAdaptSweptLeaves pins AdaptStats.SweptLeaves: an epoch's first pass
// examines every leaf of the rank, and a pass repeated at the estimator's
// fixed point examines none.
func TestAdaptSweptLeaves(t *testing.T) {
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	err := par.Run(2, func(c *par.Comm) {
		e := Bootstrap(c, m)
		est := fem.InterpolationEstimator(fem.TransientSolution(0))
		leaves := e.F.NumLeaves()
		if st := e.Adapt(est, 4e-3, 1e-3, 12); st.SweptLeaves != leaves {
			panic(fmt.Sprintf("rank %d: first pass swept %d of %d leaves", c.Rank(), st.SweptLeaves, leaves))
		}
		for pass := 0; ; pass++ {
			if pass == 20 {
				panic("no fixed point in 20 passes")
			}
			st := e.Adapt(est, 4e-3, 1e-3, 12)
			if c.AllReduceSumInt64(int64(st.LocalRefined+st.LocalCoarsened)) == 0 {
				break
			}
		}
		if st := e.Adapt(est, 4e-3, 1e-3, 12); st.SweptLeaves != 0 {
			panic(fmt.Sprintf("rank %d: a pass at the fixed point swept %d leaves", c.Rank(), st.SweptLeaves))
		}
		fresh := fem.InterpolationEstimator(fem.TransientSolution(0))
		leaves = e.F.NumLeaves()
		if st := e.Adapt(fresh, 4e-3, 1e-3, 12); st.SweptLeaves != leaves {
			panic(fmt.Sprintf("rank %d: a new estimator's pass swept %d of %d leaves", c.Rank(), st.SweptLeaves, leaves))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
