package fem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"pared/internal/refine"
)

type namedField struct {
	name string
	u    func(geom.Vec3) float64
}

// estimatorFields lists every field InterpolationEstimator is fed in this
// repository: the two corner solutions, the §10 peak at several times, the 3D
// moving peak of the transient3d experiment, and the cycle benchmark's
// rotated peak and slid corners, rebuilt here in the shape bench/workloads.go
// gives them.
func estimatorFields() []namedField {
	fields := []namedField{{"corner2d", CornerSolution2D}, {"corner3d", CornerSolution3D}}
	for _, t := range []float64{-0.5, -0.2, 0, 0.3, 0.5} {
		fields = append(fields,
			namedField{fmt.Sprintf("peak2d(t=%g)", t), TransientSolution(t)},
			namedField{fmt.Sprintf("peak3d(t=%g)", t), func(p geom.Vec3) float64 {
				dx, dy, dz := p.X+t, p.Y+t, p.Z+t
				return 1 / (1 + 100*(dx*dx+dy*dy+dz*dz))
			}})
	}
	for _, rot := range []float64{-0.03, 0.017} {
		u := TransientSolution(-0.1)
		cs, sn := math.Cos(rot), math.Sin(rot)
		fields = append(fields, namedField{fmt.Sprintf("rotated(%g)", rot), func(p geom.Vec3) float64 {
			return u(geom.Vec3{X: cs*p.X + sn*p.Y, Y: cs*p.Y - sn*p.X})
		}})
	}
	for _, c := range []namedField{{"slid2d", CornerSolution2D}, {"slid3d", CornerSolution3D}} {
		d := 0.1 * 2 / 16.0
		fields = append(fields, namedField{c.name, func(p geom.Vec3) float64 {
			return c.u(geom.Vec3{X: p.X - d, Y: p.Y + d, Z: p.Z})
		}})
	}
	return fields
}

// randomlyRefined refines random leaves of m's forest through rounds closures,
// coarsening a random share in between, so that leaves of every level and
// shape the refiner makes are present.
func randomlyRefined(m *mesh.Mesh, rounds int, seed int64) *forest.Forest {
	rng := rand.New(rand.NewSource(seed))
	f := forest.FromMesh(m)
	r := refine.NewRefiner(f)
	for k := 0; k < rounds; k++ {
		leaves := f.Leaves()
		for i := 0; i < len(leaves)/6; i++ {
			r.RefineLeaf(leaves[rng.Intn(len(leaves))])
		}
		r.Closure()
		if k%3 == 2 {
			r.Coarsen(func(forest.NodeID) bool { return rng.Intn(3) == 0 })
		}
	}
	return f
}

// TestInterpolationEstimatorMatchesReference holds InterpolationEstimator to
// the generic weight-vector form it replaced, bit for bit, on every leaf of
// randomly refined 2D and 3D forests under every field listed above.
func TestInterpolationEstimatorMatchesReference(t *testing.T) {
	for dim, f := range []*forest.Forest{
		randomlyRefined(meshgen.RectTri(16, 16, -1, -1, 1, 1), 6, 1),
		randomlyRefined(meshgen.BoxTet(5, 5, 5, -1, -1, -1, 1, 1, 1), 4, 2),
	} {
		leaves := f.Leaves()
		for _, field := range estimatorFields() {
			got, want := InterpolationEstimator(field.u), refInterpolationEstimator(field.u)
			nonzero := 0
			for _, id := range leaves {
				g, w := got.Indicator(f, id), want.Indicator(f, id)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%dD forest, field %s, leaf %d: %v (%#x), reference %v (%#x)",
						dim+2, field.name, id, g, math.Float64bits(g), w, math.Float64bits(w))
				}
				if g != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Fatalf("%dD forest, field %s: every indicator is zero", dim+2, field.name)
			}
		}
	}
}

// packFloats is the fuzz input encoding: little-endian IEEE 754 words.
func packFloats(xs ...float64) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// FuzzInterpolationEstimator decodes up to twelve raw coordinates, the corners
// of one tetrahedron (the first three make a triangle), and holds
// InterpolationEstimator to the reference bit for bit on both simplices.
// Inputs with a non-finite coordinate or vertex value are outside the
// equality InterpolationEstimator documents and are skipped.
func FuzzInterpolationEstimator(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(packFloats(0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1))
	f.Add(packFloats(negZero, negZero, negZero, -1, negZero, 0.5, negZero, -0.25, negZero, 0.75, 0.125, -1))
	f.Add(packFloats(5e-324, -5e-324, 2.5e-310, -1e-308, 3e-323, negZero, 1, -1e-320, 0, negZero, 7e-324, -0.5))
	f.Add(packFloats(-0.3, -0.3, 0, -0.2, -0.35, 0, -0.25, -0.2, 0, -0.3, -0.25, 0.05))
	f.Add(packFloats(1e300, -1e300, 0, -1e300, 1e300, 1, 0.5, 0.5, 0.5, -1e-300, 1e-300, 0))
	f.Add([]byte{1, 2, 3})
	fields := []func(geom.Vec3) float64{
		TransientSolution(0.25),
		CornerSolution3D,
		func(p geom.Vec3) float64 { return p.X*p.Y - p.Z },        // −0, negatives and subnormals
		func(p geom.Vec3) float64 { return math.Atan2(p.Y, p.X) }, // tells −0 from +0 in a sample point
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var c [12]float64
		for i := range c {
			if len(raw) >= 8*(i+1) {
				c[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
			if math.IsNaN(c[i]) || math.IsInf(c[i], 0) {
				t.Skip("non-finite coordinate")
			}
		}
		for nv := 3; nv <= 4; nv++ {
			s := forest.New(mesh.Dim(nv - 1))
			verts := [4]int32{-1, -1, -1, -1}
			for i := 0; i < nv; i++ {
				verts[i] = s.InternVertex(forest.VertexID(i), geom.Vec3{X: c[3*i], Y: c[3*i+1], Z: c[3*i+2]})
			}
			id := s.AddRoot(0, verts)
		field:
			for k, u := range fields {
				for _, v := range s.Coords {
					if x := u(v); math.IsNaN(x) || math.IsInf(x, 0) {
						continue field
					}
				}
				g := InterpolationEstimator(u).Indicator(s, id)
				w := refInterpolationEstimator(u).Indicator(s, id)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("nv=%d, field %d, corners %v: %v (%#x), reference %v (%#x)",
						nv, k, s.Coords, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	})
}

// BenchmarkInterpolationEstimator times one indicator sweep over the leaves
// of an adapted forest, the work of Engine.Adapt's target sweep: the 2D peak
// of the transient workloads and the 3D corner of growth3d_sfc.
func BenchmarkInterpolationEstimator(b *testing.B) {
	cases := []struct {
		name     string
		m        *mesh.Mesh
		u        func(geom.Vec3) float64
		tol      float64
		maxLevel int32
	}{
		{"peak2d", meshgen.RectTri(20, 20, -1, -1, 1, 1), TransientSolution(-0.1), 2e-3, 18},
		{"corner3d", meshgen.BoxTet(4, 4, 4, -1, -1, -1, 1, 1, 1), CornerSolution3D, 5e-3, 9},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			f := forest.FromMesh(c.m)
			est := InterpolationEstimator(c.u)
			refine.AdaptToTolerance(f, est, c.tol, c.maxLevel, 20)
			leaves := f.Leaves()
			b.ResetTimer()
			sink := 0.0
			for i := 0; i < b.N; i++ {
				for _, id := range leaves {
					sink += est.Indicator(f, id)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(leaves)), "ns/leaf")
			b.ReportMetric(float64(len(leaves)), "leaves")
			if sink == 0 {
				b.Fatal("every indicator is zero")
			}
		})
	}
}
