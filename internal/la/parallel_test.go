package la

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

func withProcs(t *testing.T, procs int, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestKernelsBitIdenticalAcrossGOMAXPROCS pins the determinism contract for
// the two la kernels on internal/kern, SpMV (CSR.MulVec) and Dot: each, and
// a full CG solve built on them, must produce byte-identical outputs under
// GOMAXPROCS ∈ {1, 2, 8}, run after run.
func TestKernelsBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	a := laplace2D(90) // 8100 rows: several chunks at both grains
	x := randVec(a.N, 5)
	y := randVec(a.N, 6)
	// 25 Dot chunks: partials folded in any order but ascending would show.
	xl, yl := randVec(100_003, 7), randVec(100_003, 8)

	type snapshot struct {
		spmv    []uint64
		dot     uint64
		dotLong uint64
		cg      []uint64
		it      int
	}
	take := func() snapshot {
		var s snapshot
		dst := make([]float64, a.N)
		a.MulVec(dst, x)
		for _, v := range dst {
			s.spmv = append(s.spmv, math.Float64bits(v))
		}
		s.dot = math.Float64bits(Dot(x, y))
		s.dotLong = math.Float64bits(Dot(xl, yl))
		sol := make([]float64, a.N)
		res := CG(a, y, sol, 1e-10, 2000)
		if !res.Converged {
			t.Fatal("CG did not converge")
		}
		s.it = res.Iterations
		for _, v := range sol {
			s.cg = append(s.cg, math.Float64bits(v))
		}
		return s
	}

	var ref snapshot
	withProcs(t, 1, func() { ref = take() })
	for _, procs := range []int{1, 2, 8} {
		withProcs(t, procs, func() {
			for rep := 0; rep < 2; rep++ {
				got := take()
				if got.dot != ref.dot || got.dotLong != ref.dotLong {
					t.Fatalf("GOMAXPROCS=%d run %d: Dot bits differ", procs, rep)
				}
				if got.it != ref.it {
					t.Fatalf("GOMAXPROCS=%d run %d: CG iteration count %d != %d", procs, rep, got.it, ref.it)
				}
				for i := range ref.spmv {
					if got.spmv[i] != ref.spmv[i] {
						t.Fatalf("GOMAXPROCS=%d run %d: SpMV row %d differs", procs, rep, i)
					}
				}
				for i := range ref.cg {
					if got.cg[i] != ref.cg[i] {
						t.Fatalf("GOMAXPROCS=%d run %d: CG solution entry %d differs", procs, rep, i)
					}
				}
			}
		})
	}
}

// TestBuildCSRMatchesReference checks the counting-sort assembly against a
// naive map-based reference on random duplicate-heavy triplet streams.
func TestBuildCSRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(40)
		nnz := rng.Intn(6 * n)
		rows := make([]int32, nnz)
		cols := make([]int32, nnz)
		vals := make([]float64, nnz)
		type key struct{ r, c int32 }
		want := map[key]float64{}
		for k := 0; k < nnz; k++ {
			rows[k] = int32(rng.Intn(n))
			cols[k] = int32(rng.Intn(n))
			vals[k] = rng.NormFloat64()
			want[key{rows[k], cols[k]}] += vals[k]
		}
		a := BuildCSR(n, rows, cols, vals)
		if int(a.RowPtr[n]) != len(a.Col) || len(a.Col) != len(a.Val) {
			t.Fatalf("trial %d: inconsistent CSR arrays", trial)
		}
		if len(a.Col) != len(want) {
			t.Fatalf("trial %d: %d stored entries, want %d", trial, len(a.Col), len(want))
		}
		for r := 0; r < n; r++ {
			seg := a.Col[a.RowPtr[r]:a.RowPtr[r+1]]
			if !sort.SliceIsSorted(seg, func(i, j int) bool { return seg[i] < seg[j] }) {
				t.Fatalf("trial %d: row %d columns not sorted", trial, r)
			}
			for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
				got := a.Val[k]
				exact := want[key{int32(r), a.Col[k]}]
				if math.Abs(got-exact) > 1e-12*(1+math.Abs(exact)) {
					t.Fatalf("trial %d: entry (%d,%d) = %v, want %v", trial, r, a.Col[k], got, exact)
				}
			}
		}
	}
}

// TestBuildCSRDeterministicDuplicateOrder: duplicate coordinates must sum in
// triplet order, so two identical streams give bit-identical values even
// when cancellation makes the order observable.
func TestBuildCSRDeterministicDuplicateOrder(t *testing.T) {
	build := func() *CSR {
		b := NewBuilder(2)
		b.Add(0, 0, 1e17)
		b.Add(0, 0, 1)
		b.Add(0, 0, -1e17)
		b.Add(1, 1, 1)
		return b.Build()
	}
	first := build()
	for i := 0; i < 5; i++ {
		again := build()
		for k := range first.Val {
			if math.Float64bits(first.Val[k]) != math.Float64bits(again.Val[k]) {
				t.Fatal("duplicate accumulation order not deterministic")
			}
		}
	}
	// Triplet order (1e17 + 1) - 1e17 loses the 1 to rounding; the stored
	// value pins the left-to-right contract.
	if got := first.Val[0]; got != 0 {
		t.Fatalf("triplet-order accumulation gave %v, want 0 (1 absorbed by 1e17)", got)
	}
}
