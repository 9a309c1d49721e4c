// Package la provides the sparse linear algebra PARED needs: CSR matrices,
// a conjugate-gradient solver for the FEM systems, and a Lanczos eigensolver
// used by recursive spectral bisection to compute Fiedler vectors.
//
// SpMV and Dot run on internal/kern's deterministic parallel layer, the two
// kernels that are measurably faster with a second core; everything else is
// a serial loop. Static chunk geometry and ordered reductions make both
// byte-identical for any GOMAXPROCS value, so Dot rounds like a chunked
// serial sum (chunk boundaries a pure function of the length), not like a
// flat left-to-right loop.
package la

import (
	"fmt"

	"pared/internal/kern"
)

// Chunk grains for the kern kernels: rows per chunk for SpMV, elements per
// chunk for Dot. Grain values are part of the numeric contract — changing
// vecGrain changes reduction rounding — so they are constants, not tunables.
const (
	rowGrain = 512
	vecGrain = 4096
)

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	N      int // rows == cols (all uses here are square)
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// mulVecRange computes dst[lo:hi] = (A·x)[lo:hi]. The reslices carry the
// bounds: per stored entry only x[c] keeps its check, and the accumulation
// is the same left-to-right sum as the indexed loop.
func (a *CSR) mulVecRange(dst, x []float64, lo, hi int) {
	dst = dst[lo:hi]
	ptr := a.RowPtr[lo : hi+1]
	s := ptr[0]
	for i, e := range ptr[1:] {
		cols := a.Col[s:e]
		vals := a.Val[s:e]
		vals = vals[:len(cols)]
		sum := 0.0
		for k, c := range cols {
			sum += vals[k] * x[c]
		}
		dst[i] = sum
		s = e
	}
}

// MulVec computes dst = A·x. Rows are computed in parallel chunks; each row
// is the same left-to-right accumulation as a serial loop, so the result is
// byte-identical to serial evaluation regardless of worker count.
func (a *CSR) MulVec(dst, x []float64) {
	if len(dst) != a.N || len(x) != a.N {
		panic("la: MulVec dimension mismatch")
	}
	if kern.Workers() == 1 {
		// Rows are independent, so the single-worker path needs no chunk
		// bookkeeping (and no closure allocation in solver inner loops).
		a.mulVecRange(dst, x, 0, a.N)
	} else {
		kern.For(a.N, rowGrain, func(lo, hi int) { a.mulVecRange(dst, x, lo, hi) })
	}
	if assertEnabled {
		a.assertMulVecMatchesSerial(dst, x)
	}
}

// Diag returns the diagonal entries of A (zero where absent).
func (a *CSR) Diag() []float64 {
	d := make([]float64, a.N)
	diagInto(a, d)
	return d
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Val) }

// Builder accumulates COO triplets and assembles a CSR matrix, summing
// duplicates (the natural fit for FEM assembly).
type Builder struct {
	n    int
	rows []int32
	cols []int32
	vals []float64
}

// NewBuilder creates a builder for an n×n matrix.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// Add accumulates v at (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("la: Add(%d,%d) out of range for n=%d", i, j, b.n))
	}
	b.rows = append(b.rows, int32(i))
	b.cols = append(b.cols, int32(j))
	b.vals = append(b.vals, v)
}

// Build assembles the CSR matrix, summing duplicate coordinates.
func (b *Builder) Build() *CSR {
	return BuildCSR(b.n, b.rows, b.cols, b.vals)
}

// BuildCSR assembles an n×n CSR matrix from COO triplets, summing duplicate
// coordinates in triplet order. The triplet slices are read-only inputs;
// element-parallel assemblers (internal/fem) fill them at precomputed
// offsets and hand them over directly, skipping Builder's append path.
//
// The algorithm is a stable counting sort by row followed by per-row stable
// insertion sorts. Duplicates accumulate left-to-right in triplet order, so
// the result is a pure function of the triplet sequence.
func BuildCSR(n int, rows, cols []int32, vals []float64) *CSR {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		panic("la: BuildCSR triplet slices have mismatched lengths")
	}
	nnzIn := len(rows)
	// Bounds-establishing reslices: the guard above pins all three triplet
	// slices to the same length, so cols[k]/vals[k] for k ranging over rows
	// are provably in-bounds (and the compiler's BCE drops the checks).
	cols = cols[:nnzIn]
	vals = vals[:nnzIn]
	// Stable counting sort by row: start[r] is row r's segment offset.
	start := make([]int32, n+1)
	for _, r := range rows {
		start[r+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	scol := make([]int32, nnzIn)
	sval := make([]float64, nnzIn)
	next := make([]int32, n)
	copy(next, start[:n])
	for k, r := range rows {
		p := next[r]
		scol[p] = cols[k]
		sval[p] = vals[k]
		next[r] = p + 1
	}
	// Per-row: stable insertion sort by column, then in-place duplicate
	// accumulation; rowLen[r] is the deduplicated length.
	rowLen := next // reuse: next[r] is no longer needed
	for r := 0; r < n; r++ {
		s, e := int(start[r]), int(start[r+1])
		for k := s + 1; k < e; k++ {
			c, v := scol[k], sval[k]
			j := k
			for j > s && scol[j-1] > c {
				scol[j], sval[j] = scol[j-1], sval[j-1]
				j--
			}
			scol[j], sval[j] = c, v
		}
		m := s
		for k := s; k < e; k++ {
			if k > s && scol[k] == scol[m-1] {
				sval[m-1] += sval[k]
				continue
			}
			scol[m], sval[m] = scol[k], sval[k]
			m++
		}
		rowLen[r] = int32(m - s)
	}
	rowPtr := make([]int32, n+1)
	for r := 0; r < n; r++ {
		rowPtr[r+1] = rowPtr[r] + rowLen[r]
	}
	a := &CSR{N: n, RowPtr: rowPtr}
	nnz := int(rowPtr[n])
	a.Col = make([]int32, nnz)
	a.Val = make([]float64, nnz)
	for r := 0; r < n; r++ {
		copy(a.Col[a.RowPtr[r]:a.RowPtr[r+1]], scol[start[r]:int(start[r])+int(rowLen[r])])
		copy(a.Val[a.RowPtr[r]:a.RowPtr[r+1]], sval[start[r]:int(start[r])+int(rowLen[r])])
	}
	return a
}

// Dot returns xᵀy, reduced over static chunks in ascending order (see
// package doc: byte-identical for any GOMAXPROCS, chunked rounding).
func Dot(x, y []float64) float64 {
	n := len(x)
	y = y[:n] // pin the lengths together: y[i] is in-bounds wherever x[i] is
	if kern.Workers() == 1 {
		// Single-worker path: fold the same static chunks in the same
		// ascending order as kern.Sum (the association is part of the
		// numeric contract), without the closure and partials traffic.
		acc := 0.0
		for lo := 0; lo < n; lo += vecGrain {
			hi := lo + vecGrain
			if hi > n {
				hi = n
			}
			s := 0.0
			for i := lo; i < hi; i++ {
				s += x[i] * y[i]
			}
			acc += s
		}
		return acc
	}
	return kern.Sum(n, vecGrain, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += x[i] * y[i]
		}
		return s
	})
}

// Axpy computes y += a·x.
func Axpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// Scale computes x *= a.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := Dot(x, x)
	if s <= 0 {
		return 0
	}
	return sqrt(s)
}
