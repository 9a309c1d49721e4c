package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(1, 2, 5)
	b.Add(2, 1, 5)
	b.Add(1, 1, 1)
	b.Add(2, 2, 1)
	a := b.Build()
	if a.NNZ() != 5 {
		t.Errorf("nnz = %d, want 5", a.NNZ())
	}
	d := a.Diag()
	if d[0] != 3 || d[1] != 1 || d[2] != 1 {
		t.Errorf("diag = %v", d)
	}
	x := []float64{1, 1, 1}
	y := make([]float64, 3)
	a.MulVec(y, x)
	want := []float64{3, 6, 6}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-14 {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuilder(2).Add(0, 5, 1)
}

// laplacian1D builds the tridiagonal Laplacian of a path graph with n nodes.
func laplacian1D(n int) *CSR {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.Add(i, i, 1)
		b.Add(i+1, i+1, 1)
		b.Add(i, i+1, -1)
		b.Add(i+1, i, -1)
	}
	return b.Build()
}

func TestCGSolvesSPD(t *testing.T) {
	// Shifted Laplacian is SPD.
	n := 50
	lap := laplacian1D(n)
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for k := lap.RowPtr[i]; k < lap.RowPtr[i+1]; k++ {
			b.Add(i, int(lap.Col[k]), lap.Val[k])
		}
		b.Add(i, i, 0.5)
	}
	a := b.Build()
	want := make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	rhs := make([]float64, n)
	a.MulVec(rhs, want)
	x := make([]float64, n)
	res := CG(a, rhs, x, 1e-12, 1000)
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSymTriEigKnownSpectrum(t *testing.T) {
	// Path-graph Laplacian eigenvalues: 2 - 2cos(kπ/n), k = 0..n-1.
	n := 12
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := 0; i < n; i++ {
		d[i] = 2
	}
	d[0], d[n-1] = 1, 1
	for i := range e {
		e[i] = -1
	}
	vals, vecs := SymTriEig(d, e)
	for k := 0; k < n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n))
		if math.Abs(vals[k]-want) > 1e-9 {
			t.Errorf("λ[%d] = %v, want %v", k, vals[k], want)
		}
	}
	// Residual check ‖Tv − λv‖ for each pair.
	for k := 0; k < n; k++ {
		v := vecs[k]
		for i := 0; i < n; i++ {
			tv := d[i] * v[i]
			if i > 0 {
				tv += e[i-1] * v[i-1]
			}
			if i < n-1 {
				tv += e[i] * v[i+1]
			}
			if math.Abs(tv-vals[k]*v[i]) > 1e-8 {
				t.Fatalf("eigenpair %d residual too large at %d", k, i)
			}
		}
	}
}

// TestSymTriEigOrthonormal checks orthonormal eigenvectors and small
// residuals ‖Tv − λv‖ on random tridiagonals up to the sizes Lanczos
// produces (at most 1e-14 here). The residual bound is what catches a
// deflation test that waits for an exactly zero sub-diagonal: QL then runs
// into its sweep cap and leaves residuals of 1e-3 at n = 89 and 0.6 at
// n = 144.
func TestSymTriEigOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{20, 89, 144} {
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		vals, vecs := SymTriEig(d, e)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				dot := Dot(vecs[i], vecs[j])
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-8 {
					t.Fatalf("n=%d: vecs[%d]·vecs[%d] = %v, want %v", n, i, j, dot, want)
				}
			}
		}
		for k, v := range vecs {
			for i := 0; i < n; i++ {
				tv := d[i] * v[i]
				if i > 0 {
					tv += e[i-1] * v[i-1]
				}
				if i < n-1 {
					tv += e[i] * v[i+1]
				}
				if r := math.Abs(tv - vals[k]*v[i]); r > 1e-12 {
					t.Fatalf("n=%d: eigenpair %d residual %.3g at row %d", n, k, r, i)
				}
			}
		}
	}
}

func TestFiedlerPathGraph(t *testing.T) {
	// The Fiedler vector of a path graph is monotone along the path, so it
	// splits the path in the middle.
	n := 64
	lap := laplacian1D(n)
	x := Fiedler(lap, 1e-8, 200, 1)
	// Should be (anti)monotone.
	sign := 0
	for i := 1; i < n; i++ {
		d := x[i] - x[i-1]
		if math.Abs(d) < 1e-12 {
			continue
		}
		s := 1
		if d < 0 {
			s = -1
		}
		if sign == 0 {
			sign = s
		} else if s != sign {
			t.Fatalf("Fiedler vector of path not monotone at %d", i)
		}
	}
	// Rayleigh quotient should approximate λ2 = 2 - 2cos(π/n).
	lx := make([]float64, n)
	lap.MulVec(lx, x)
	rq := Dot(x, lx)
	want := 2 - 2*math.Cos(math.Pi/float64(n))
	if math.Abs(rq-want) > 1e-4*want+1e-9 {
		t.Errorf("Rayleigh quotient %v, want %v", rq, want)
	}
}

func TestFiedlerTwoCliques(t *testing.T) {
	// Two 10-cliques joined by one edge: the Fiedler vector separates them.
	n := 20
	b := NewBuilder(n)
	addEdge := func(i, j int) {
		b.Add(i, i, 1)
		b.Add(j, j, 1)
		b.Add(i, j, -1)
		b.Add(j, i, -1)
	}
	for c := 0; c < 2; c++ {
		for i := 0; i < 10; i++ {
			for j := i + 1; j < 10; j++ {
				addEdge(c*10+i, c*10+j)
			}
		}
	}
	addEdge(0, 10)
	x := Fiedler(b.Build(), 1e-9, 200, 7)
	for i := 1; i < 10; i++ {
		if (x[i] > 0) != (x[0] > 0) {
			t.Fatalf("clique 1 not on one side: x[%d]=%v x[0]=%v", i, x[i], x[0])
		}
		if (x[10+i] > 0) == (x[0] > 0) {
			t.Fatalf("clique 2 not separated: x[%d]=%v", 10+i, x[10+i])
		}
	}
}

func TestVectorKernels(t *testing.T) {
	f := func(a float64, xs []float64) bool {
		if len(xs) == 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		a = math.Mod(a, 1e6)
		x := make([]float64, len(xs))
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			x[i] = math.Mod(v, 1e6)
		}
		y := make([]float64, len(x))
		Axpy(a, x, y) // y = a·x
		dot := Dot(x, y)
		want := a * Dot(x, x)
		return math.Abs(dot-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
