package fem

import (
	"math"
	"slices"
	"strings"
	"testing"

	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/la"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"pared/internal/refine"
)

func TestPatchTest2D(t *testing.T) {
	// P1 FEM reproduces linear solutions exactly (up to solver tolerance).
	m := meshgen.RectTri(5, 4, 0, 0, 1, 1)
	lin := func(p geom.Vec3) float64 { return 3 + 2*p.X - 5*p.Y }
	sol, err := Solve(Problem{Mesh: m, G: lin}, 1e-12, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if e := LInfError(m, sol.U, lin); e > 1e-8 {
		t.Errorf("patch test L∞ error = %g", e)
	}
}

func TestPatchTest3D(t *testing.T) {
	m := meshgen.BoxTet(3, 3, 3, 0, 0, 0, 1, 1, 1)
	lin := func(p geom.Vec3) float64 { return 1 - p.X + 4*p.Y + 2*p.Z }
	sol, err := Solve(Problem{Mesh: m, G: lin}, 1e-12, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if e := LInfError(m, sol.U, lin); e > 1e-8 {
		t.Errorf("3D patch test L∞ error = %g", e)
	}
}

func TestHarmonicSolutions(t *testing.T) {
	// The analytic corner solutions must be (discretely) harmonic.
	lap2 := func(u func(geom.Vec3) float64, p geom.Vec3) float64 {
		const h = 1e-4
		return (u(geom.Vec3{X: p.X + h, Y: p.Y}) + u(geom.Vec3{X: p.X - h, Y: p.Y}) +
			u(geom.Vec3{X: p.X, Y: p.Y + h}) + u(geom.Vec3{X: p.X, Y: p.Y - h}) - 4*u(p)) / (h * h)
	}
	for _, p := range []geom.Vec3{{X: 0.3, Y: 0.1}, {X: 0.9, Y: 0.85}, {X: -0.5, Y: 0.2}} {
		if l := lap2(CornerSolution2D, p); math.Abs(l) > 1e-2*(1+math.Abs(CornerSolution2D(p))*1e4) {
			t.Errorf("Δg(%v) = %g, not harmonic", p, l)
		}
	}
	lap3 := func(u func(geom.Vec3) float64, p geom.Vec3) float64 {
		const h = 1e-4
		s := -6 * u(p)
		for _, d := range []geom.Vec3{{X: h}, {X: -h}, {Y: h}, {Y: -h}, {Z: h}, {Z: -h}} {
			s += u(p.Add(d))
		}
		return s / (h * h)
	}
	for _, p := range []geom.Vec3{{X: 0.2, Y: 0.1, Z: 0.4}, {X: 0.8, Y: 0.9, Z: 0.7}} {
		if l := lap3(CornerSolution3D, p); math.Abs(l) > 1e-1 {
			t.Errorf("Δu3(%v) = %g, not harmonic", p, l)
		}
	}
}

func TestCornerSolutionShape(t *testing.T) {
	// Peak magnitude near (1,1), tiny in the opposite corner.
	hi := math.Abs(CornerSolution2D(geom.Vec3{X: 1, Y: 1}))
	lo := math.Abs(CornerSolution2D(geom.Vec3{X: -1, Y: -1}))
	if hi < 0.9 || lo > 1e-6 {
		t.Errorf("corner solution shape wrong: |g(1,1)|=%g |g(-1,-1)|=%g", hi, lo)
	}
	if v := CornerSolution3D(geom.Vec3{X: 1, Y: 1, Z: 1}); math.Abs(v-1) > 1e-9 {
		t.Errorf("3D corner value = %g, want 1", v)
	}
}

func TestLaplaceConvergence2D(t *testing.T) {
	// L∞ error of the FEM solution decreases under uniform refinement.
	var prev float64
	for i, n := range []int{8, 16} {
		m := meshgen.RectTri(n, n, -1, -1, 1, 1)
		sol, err := Solve(Problem{Mesh: m, G: CornerSolution2D}, 1e-10, 5000)
		if err != nil {
			t.Fatal(err)
		}
		e := L2Error(m, sol.U, CornerSolution2D)
		if i > 0 && e > prev*0.6 {
			t.Errorf("no convergence: errors %g -> %g", prev, e)
		}
		prev = e
	}
}

func TestTransientSolutionPeak(t *testing.T) {
	u := TransientSolution(-0.25)
	if v := u(geom.Vec3{X: 0.25, Y: 0.25}); math.Abs(v-1) > 1e-12 {
		t.Errorf("peak value = %g, want 1", v)
	}
	if v := u(geom.Vec3{X: -0.9, Y: -0.9}); v > 0.05 {
		t.Errorf("far value = %g, want near 0", v)
	}
}

func TestTransientSourceConsistent(t *testing.T) {
	// −Δu = f should hold: solve Poisson with the source and compare to u.
	// The peak has width ~0.1, so the mesh must resolve scale ~0.03 for the
	// error to be small; check convergence between two resolutions instead of
	// an absolute threshold.
	tt := 0.0
	var errs []float64
	for _, n := range []int{32, 64} {
		m := meshgen.RectTri(n, n, -1, -1, 1, 1)
		sol, err := Solve(Problem{Mesh: m, Source: TransientSource(tt), G: TransientSolution(tt)}, 1e-10, 8000)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, L2Error(m, sol.U, TransientSolution(tt)))
	}
	if errs[1] > 0.5*errs[0] {
		t.Errorf("no convergence on transient Poisson: %v", errs)
	}
	if errs[1] > 0.05 {
		t.Errorf("fine-mesh error = %g, too large", errs[1])
	}
}

func TestInterpolationEstimatorDrivesCornerRefinement(t *testing.T) {
	m := meshgen.RectTri(16, 16, -1, -1, 1, 1)
	f := forest.FromMesh(m)
	est := InterpolationEstimator(CornerSolution2D)
	_, passes := refine.AdaptToTolerance(f, est, 1e-2, 20, 30)
	if passes == 0 {
		t.Fatal("no adaptation happened")
	}
	// Count leaves near the (1,1) corner vs far corner: refinement must
	// concentrate near (1,1).
	lm := f.LeafMesh()
	near, far := 0, 0
	for e := range lm.Mesh.Elems {
		c := lm.Mesh.Centroid(e)
		if c.Dist(geom.Vec3{X: 1, Y: 1}) < 0.4 {
			near++
		}
		if c.Dist(geom.Vec3{X: -1, Y: -1}) < 0.4 {
			far++
		}
	}
	if near <= 2*far {
		t.Errorf("refinement not concentrated: near=%d far=%d", near, far)
	}
}

func TestAssembleLoadConstant(t *testing.T) {
	// ∫ f = Σ rhs for the lumped rule with constant f.
	m := meshgen.RectTri(4, 4, 0, 0, 2, 2)
	rhs := AssembleLoad(m, func(geom.Vec3) float64 { return 3 })
	sum := 0.0
	for _, v := range rhs {
		sum += v
	}
	if math.Abs(sum-12) > 1e-10 { // 3 × area 4
		t.Errorf("Σ load = %g, want 12", sum)
	}
}

func TestStiffnessRowSumsZero(t *testing.T) {
	// Rows of the pure Laplace stiffness matrix sum to zero (constants are in
	// the kernel).
	for _, m := range []interface {
		NumVerts() int
	}{} {
		_ = m
	}
	m2 := meshgen.RectTri(3, 3, 0, 0, 1, 1)
	a := AssembleLaplace(m2)
	ones := make([]float64, a.N)
	for i := range ones {
		ones[i] = 1
	}
	out := make([]float64, a.N)
	a.MulVec(out, ones)
	for i, v := range out {
		if math.Abs(v) > 1e-10 {
			t.Fatalf("2D row %d sums to %g", i, v)
		}
	}
	m3 := meshgen.BoxTet(2, 2, 2, 0, 0, 0, 1, 1, 1)
	a3 := AssembleLaplace(m3)
	ones = make([]float64, a3.N)
	for i := range ones {
		ones[i] = 1
	}
	out = make([]float64, a3.N)
	a3.MulVec(out, ones)
	for i, v := range out {
		if math.Abs(v) > 1e-10 {
			t.Fatalf("3D row %d sums to %g", i, v)
		}
	}
}

// eliminateByBuilder is the Dirichlet elimination EliminateDirichlet
// replaced: the kept entries rebuilt through an la.Builder, the identity
// entries of fixed rows included.
func eliminateByBuilder(a *la.CSR, fixed []bool, g, rhs []float64) *la.CSR {
	b := la.NewBuilder(a.N)
	for i := 0; i < a.N; i++ {
		if fixed[i] {
			b.Add(i, i, 1)
			continue
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := int(a.Col[k])
			if fixed[j] {
				rhs[i] -= a.Val[k] * g[j]
			} else {
				b.Add(i, j, a.Val[k])
			}
		}
	}
	return b.Build()
}

// TestEliminateDirichletMatchesBuilder: in place or rebuilt, the reduced
// system has the same row pointers, columns, value bits and rhs bits, on a
// triangle and a tetrahedral mesh whose boundary rows are fixed.
func TestEliminateDirichletMatchesBuilder(t *testing.T) {
	g := func(p geom.Vec3) float64 { return math.Sin(3*p.X) + p.Y*p.Z - 0.5*p.Y }
	f := func(p geom.Vec3) float64 { return 1 + p.X*p.Y }
	for _, m := range []*mesh.Mesh{meshgen.RectTri(7, 5, 0, 0, 1, 1), meshgen.BoxTet(3, 4, 3, 0, 0, 0, 1, 1, 1)} {
		fixed := m.BoundaryVertexSet()
		gval := make([]float64, m.NumVerts())
		for v, on := range fixed {
			if on {
				gval[v] = g(m.Verts[v])
			}
		}
		wantRHS, gotRHS := AssembleLoad(m, f), AssembleLoad(m, f)
		want := eliminateByBuilder(AssembleLaplace(m), fixed, gval, wantRHS)
		got := AssembleLaplace(m)
		EliminateDirichlet(got, fixed, gval, gotRHS)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) {
			t.Fatalf("dim %d: the sparsity differs from the rebuilt matrix's", m.Dim)
		}
		for _, pair := range [][2][]float64{{got.Val, want.Val}, {gotRHS, wantRHS}} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("dim %d: %d values, the rebuilt system has %d", m.Dim, len(pair[0]), len(pair[1]))
			}
			for k := range pair[0] {
				if math.Float64bits(pair[0][k]) != math.Float64bits(pair[1][k]) {
					t.Fatalf("dim %d: value %d is %v, rebuilt %v", m.Dim, k, pair[0][k], pair[1][k])
				}
			}
		}
	}
}

// TestEliminateDirichletEmptyFixedRowPanics: a fixed row without a stored
// entry has no room for its identity entry.
func TestEliminateDirichletEmptyFixedRowPanics(t *testing.T) {
	a := la.BuildCSR(3, []int32{0, 2}, []int32{0, 2}, []float64{1, 1})
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "Dirichlet row 1") {
			t.Fatalf("panic %q, want one naming Dirichlet row 1", r)
		}
	}()
	EliminateDirichlet(a, []bool{false, true, false}, make([]float64, 3), make([]float64, 3))
}
