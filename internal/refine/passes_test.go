package refine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/meshgen"
)

// sameTables reports whether two forests hold byte-equal node and vertex
// tables: every field of every node slot, dead ones included, every vertex ID
// and the bits of every coordinate.
func sameTables(f, g *forest.Forest) bool {
	if !slices.Equal(f.Nodes, g.Nodes) || !slices.Equal(f.VIDs, g.VIDs) || len(f.Coords) != len(g.Coords) {
		return false
	}
	for i, c := range f.Coords {
		d := g.Coords[i]
		if math.Float64bits(c.X) != math.Float64bits(d.X) || math.Float64bits(c.Y) != math.Float64bits(d.Y) || math.Float64bits(c.Z) != math.Float64bits(d.Z) {
			return false
		}
	}
	return true
}

// FuzzAdaptPasses runs one random chain of operations on two refiners over
// the same mesh. The first passes AdaptOnce one shared estimator, so a pass
// that repeats the last one's estimator and tolerances takes the shortcuts of
// MarkTargets and CoarsenBelow; the second passes an EstimatorFunc wrapper of
// it, which is never compared, so every pass is a full one. Between passes the
// chain changes either tolerance or the level cap, moves the peak (a new
// estimator), splices a tree out and back in, coarsens with another
// predicate, or refines a leaf directly. After every operation the node and
// vertex tables must be byte-equal, and so must every pass's result.
func FuzzAdaptPasses(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 64, 200} {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data)
	}
	// Repeated passes around every kind of change, in 2D and in 3D.
	f.Add([]byte{0, 0, 0, 4, 2, 0, 0, 5, 40, 0, 0, 0, 7, 3, 0, 0, 8, 2, 0, 0, 9, 17, 0, 0, 3, 0, 0, 6, 1, 0, 0})
	f.Add([]byte{1, 0, 0, 4, 1, 0, 0, 5, 200, 0, 0, 7, 5, 0, 0, 9, 3, 0, 0, 8, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		three := data[0]%2 == 1
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		build := func() *Refiner {
			if three {
				return NewRefiner(forest.FromMesh(meshgen.BoxTet(2, 2, 2, -1, -1, -1, 1, 1, 1)))
			}
			return NewRefiner(forest.FromMesh(meshgen.RectTri(4, 4, -1, -1, 1, 1)))
		}
		a, b := build(), build()
		peakAt := func(k byte) *countingEst {
			p := geom.Vec3{X: float64(k%8)/4 - 0.9, Y: float64(k/8%8)/4 - 0.9}
			if three {
				p.Z = float64(k/64)/2 - 0.75
			}
			return &countingEst{peak: p}
		}
		est := peakAt(0)
		refineTol, coarsenTol, maxLevel := 1.0, 0.25, int32(9)
		for op := 0; op < 64 && len(data) > 0; op++ {
			switch next() % 10 {
			case 3:
				refineTol = []float64{0.5, 1, 2}[next()%3]
			case 4:
				coarsenTol = []float64{0, 0.1, 0.25, 0.5}[next()%4]
			case 5:
				est = peakAt(next())
			case 6:
				maxLevel = []int32{4, 6, 9}[next()%3]
			case 7:
				k := int(next())
				for _, r := range []*Refiner{a, b} {
					root := r.F.Roots()[k%r.F.NumRoots()]
					p := r.F.ExtractTree(root)
					r.RemoveTree(root)
					r.F.RemoveTree(root)
					if err := r.F.InsertTree(p); err != nil {
						t.Fatal(err)
					}
					r.InsertTree(root)
					r.Settle()
				}
			case 8:
				level := int32(next() % 4)
				for _, r := range []*Refiner{a, b} {
					r.Coarsen(func(id forest.NodeID) bool { return r.F.Node(id).Level > level })
				}
			case 9:
				k := int(next())
				for _, r := range []*Refiner{a, b} {
					r.RefineLeaf(r.F.Leaves()[k%r.F.NumLeaves()])
					r.Closure()
				}
			default:
				got := AdaptOnce(a, est, refineTol, coarsenTol, maxLevel)
				want := AdaptOnce(b, EstimatorFunc(est.Indicator), refineTol, coarsenTol, maxLevel)
				if got != want {
					t.Fatalf("op %d: pass %+v, the full path's %+v", op, got, want)
				}
			}
			if !sameTables(a.F, b.F) {
				t.Fatalf("op %d: node or vertex table differs from the full path's", op)
			}
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
