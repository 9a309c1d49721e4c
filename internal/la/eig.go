package la

import (
	"math"
	"math/rand"
)

// SymTriEig computes all eigenvalues and eigenvectors of the symmetric
// tridiagonal matrix with diagonal d (length n) and sub-diagonal e (length
// n-1), using the implicit-shift QL algorithm (EISPACK tql2). Eigenvalues are
// returned in ascending order; vecs[i] is the eigenvector for vals[i].
func SymTriEig(d, e []float64) (vals []float64, vecs [][]float64) {
	n := len(d)
	vals = append([]float64(nil), d...)
	sub := make([]float64, n)
	copy(sub, e)
	// z is the accumulated rotation matrix, stored column-major:
	// z[j][i] = component i of eigenvector j after transposition below.
	z := make([][]float64, n)
	for i := range z {
		z[i] = make([]float64, n)
		z[i][i] = 1
	}
	const maxSweeps = 50
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(vals[m]) + math.Abs(vals[m+1])
				if math.Abs(sub[m]) <= 1e-15*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter >= maxSweeps {
				break // best effort; extremely rare
			}
			g := (vals[l+1] - vals[l]) / (2 * sub[l])
			r := math.Hypot(g, 1)
			g = vals[m] - vals[l] + sub[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * sub[i]
				b := c * sub[i]
				r = math.Hypot(f, g)
				sub[i+1] = r
				if r == 0 {
					vals[i+1] -= p
					sub[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = vals[i+1] - p
				r = (vals[i]-g)*s + 2*c*b
				p = s * r
				vals[i+1] = g + p
				g = c*r - b
				for k := 0; k < n; k++ {
					f := z[k][i+1]
					z[k][i+1] = s*z[k][i] + c*f
					z[k][i] = c*z[k][i] - s*f
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			vals[l] -= p
			sub[l] = g
			sub[m] = 0
		}
	}
	// Sort ascending, carrying eigenvectors (columns of z).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && vals[order[j]] < vals[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	sortedVals := make([]float64, n)
	vecs = make([][]float64, n)
	for idx, o := range order {
		sortedVals[idx] = vals[o]
		v := make([]float64, n)
		for k := 0; k < n; k++ {
			v[k] = z[k][o]
		}
		vecs[idx] = v
	}
	return sortedVals, vecs
}

// topEigenvalueBisect computes the largest eigenvalue of the symmetric
// tridiagonal matrix (d, e) by bisection on the Sturm (negative-pivot) count
// of the LDLᵀ factorization of T − xI: O(n) per probe, ~60 probes to machine
// precision — far cheaper than a QL sweep when only the extremal eigenvalue
// is wanted. anorm is the ∞-norm of T (used to guard zero pivots).
func topEigenvalueBisect(d, e []float64, anorm float64) float64 {
	n := len(d)
	// Gershgorin bounds.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(e[i-1])
		}
		if i < n-1 {
			r += math.Abs(e[i])
		}
		if d[i]-r < lo {
			lo = d[i] - r
		}
		if d[i]+r > hi {
			hi = d[i] + r
		}
	}
	pivmin := 1e-306 + 1e-30*anorm
	// negcount(x) = number of eigenvalues strictly below x.
	negcount := func(x float64) int {
		cnt := 0
		t := d[0] - x
		if t < 0 {
			cnt++
		}
		for i := 1; i < n; i++ {
			if math.Abs(t) < pivmin {
				t = math.Copysign(pivmin, t)
			}
			t = d[i] - x - e[i-1]*e[i-1]/t
			if t < 0 {
				cnt++
			}
		}
		return cnt
	}
	// Invariant: negcount(hi') = n, some eigenvalue ≥ lo. Converge the
	// bracket to a few ulps of the spectrum scale.
	hi += 2 * pivmin
	eps := 1e-15 * (math.Abs(lo) + math.Abs(hi) + anorm)
	for iter := 0; iter < 120 && hi-lo > eps; iter++ {
		mid := 0.5 * (lo + hi)
		if negcount(mid) == n {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi)
}

// symTriTopPair returns the largest eigenvalue of the symmetric tridiagonal
// matrix (d, e) and its unit eigenvector. The eigenvalue comes from Sturm
// bisection and the vector from inverse iteration with partial pivoting, so
// the cost is O(n) per probe/sweep instead of the O(n³) rotation accumulation
// of SymTriEig — this is what makes the Lanczos convergence checks in Fiedler
// cheap enough to run every few steps. Falls back to the full decomposition
// in the (rare, clustered-spectrum) case where inverse iteration stalls.
func symTriTopPair(d, e []float64) (float64, []float64) {
	n := len(d)
	if n == 1 {
		return d[0], []float64{1}
	}
	anorm := 0.0
	for i := 0; i < n; i++ {
		a := math.Abs(d[i])
		if i < n-1 {
			a += math.Abs(e[i])
		}
		if i > 0 {
			a += math.Abs(e[i-1])
		}
		if a > anorm {
			anorm = a
		}
	}
	if anorm == 0 {
		anorm = 1
	}
	lambda := topEigenvalueBisect(d, e, anorm)
	if y := triInverseIterate(d, e, lambda, anorm); y != nil {
		return lambda, y
	}
	vals, vecs := SymTriEig(d, e)
	return vals[n-1], vecs[n-1]
}

// triInverseIterate solves (T − λI)·y_{k+1} = y_k with a partially pivoted
// tridiagonal factorization (LAPACK dlagtf/dlagts style) from a fixed
// pseudo-random start, normalizing each sweep. It returns the normalized
// eigenvector, or nil if the residual has not reached inverse-iteration
// accuracy after a few sweeps.
func triInverseIterate(d, e []float64, lambda, anorm float64) []float64 {
	n := len(d)
	// Factor T − λI = P·L·U. U has two superdiagonals (u, v, w) because row
	// swaps push fill one slot to the right; mult/swapped replay the
	// elimination on a right-hand side.
	u := make([]float64, n)
	v := make([]float64, n)
	w := make([]float64, n)
	mult := make([]float64, n)
	swapped := make([]bool, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		b[i] = d[i] - lambda
	}
	copy(c, e)
	tiny := 1e-306 + 1e-15*anorm
	for i := 0; i < n-1; i++ {
		if math.Abs(b[i]) >= math.Abs(e[i]) {
			piv := b[i]
			if math.Abs(piv) < tiny {
				piv = math.Copysign(tiny, piv)
			}
			m := e[i] / piv
			u[i], v[i], w[i] = piv, c[i], 0
			b[i+1] -= m * c[i]
			mult[i], swapped[i] = m, false
			continue
		}
		// Swap rows i and i+1: row i becomes (e[i], b[i+1], c[i+1]).
		m := b[i] / e[i]
		u[i], v[i] = e[i], b[i+1]
		if i+1 < n-1 {
			w[i] = c[i+1]
			c[i+1] = -m * c[i+1]
		}
		b[i+1] = c[i] - m*v[i]
		mult[i], swapped[i] = m, true
	}
	u[n-1] = b[n-1]
	if math.Abs(u[n-1]) < tiny {
		u[n-1] = math.Copysign(tiny, u[n-1])
	}
	// Fixed pseudo-random start (xorshift), so the result — including the
	// eigenvector's sign — is a pure function of (d, e).
	y := make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range y {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		y[i] = float64(state>>11)/float64(1<<53) - 0.5
	}
	rhs := make([]float64, n)
	for sweep := 0; sweep < 5; sweep++ {
		copy(rhs, y)
		for i := 0; i < n-1; i++ {
			if swapped[i] {
				rhs[i], rhs[i+1] = rhs[i+1], rhs[i]
			}
			rhs[i+1] -= mult[i] * rhs[i]
		}
		y[n-1] = rhs[n-1] / u[n-1]
		if n >= 2 {
			y[n-2] = (rhs[n-2] - v[n-2]*y[n-1]) / u[n-2]
		}
		for i := n - 3; i >= 0; i-- {
			y[i] = (rhs[i] - v[i]*y[i+1] - w[i]*y[i+2]) / u[i]
		}
		norm := Norm2(y)
		if norm == 0 {
			return nil
		}
		Scale(1/norm, y)
		// Residual ‖T·y − λ·y‖∞ relative to ‖T‖: inverse iteration converges
		// to O(eps) for an isolated extremal eigenvalue in one or two sweeps.
		resid := 0.0
		for i := 0; i < n; i++ {
			r := (d[i] - lambda) * y[i]
			if i > 0 {
				r += e[i-1] * y[i-1]
			}
			if i < n-1 {
				r += e[i] * y[i+1]
			}
			if math.Abs(r) > resid {
				resid = math.Abs(r)
			}
		}
		if resid <= 1e-10*anorm {
			return y
		}
	}
	return nil
}

// Fiedler computes the eigenvector of the second-smallest eigenvalue of the
// symmetric Laplacian matrix lap (rows must sum to ~0), using Lanczos with
// full reorthogonalization on the shifted operator σI − L so the wanted pair
// is extremal. The constant vector (nullspace of L) is projected out
// explicitly. The result has unit norm. seed controls the random start.
func Fiedler(lap *CSR, tol float64, maxIter int, seed int64) []float64 {
	n := lap.N
	if n == 1 {
		return []float64{0}
	}
	// σ exceeds λmax(L) ≤ 2·max diag.
	sigma := 1.0
	for _, d := range lap.Diag() {
		if 2*d+1 > sigma {
			sigma = 2*d + 1
		}
	}
	applyB := func(dst, x []float64) {
		lap.MulVec(dst, x)
		for i := range dst {
			dst[i] = sigma*x[i] - dst[i]
		}
	}
	deflate := func(x []float64) {
		mean := 0.0
		for _, v := range x {
			mean += v
		}
		mean /= float64(n)
		for i := range x {
			x[i] -= mean
		}
	}
	if maxIter <= 0 {
		maxIter = 300
	}
	m := maxIter
	if m > n-1 {
		m = n - 1
	}
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() - 0.5
	}
	deflate(v)
	nv := Norm2(v)
	if nv == 0 {
		v[0] = 1
		deflate(v)
		nv = Norm2(v)
	}
	Scale(1/nv, v)

	vs := make([][]float64, 0, m+1)
	vs = append(vs, append([]float64(nil), v...))
	alpha := make([]float64, 0, m)
	beta := make([]float64, 0, m)
	w := make([]float64, n)
	steps := 0
	for j := 0; j < m; j++ {
		applyB(w, vs[j])
		a := Dot(w, vs[j])
		alpha = append(alpha, a)
		Axpy(-a, vs[j], w)
		if j > 0 {
			Axpy(-beta[j-1], vs[j-1], w)
		}
		deflate(w)
		// Full reorthogonalization for numerical stability.
		for _, u := range vs {
			Axpy(-Dot(w, u), u, w)
		}
		b := Norm2(w)
		steps = j + 1
		if b < 1e-12 {
			break
		}
		beta = append(beta, b)
		next := make([]float64, n)
		for i := range next {
			next[i] = w[i] / b
		}
		vs = append(vs, next)
		// Periodic convergence check on the extremal Ritz pair. The check
		// needs only the top eigenpair of the small tridiagonal T, so it uses
		// the O(j²) top-pair path rather than the full O(j³) decomposition.
		if (j+1)%8 == 0 || j == m-1 {
			val, vec := symTriTopPair(alpha, beta[:len(alpha)-1])
			resid := b * math.Abs(vec[len(alpha)-1])
			if resid < tol*math.Abs(val) {
				break
			}
		}
	}
	// Ritz vector for the largest eigenvalue of T.
	_, s := symTriTopPair(alpha[:steps], beta[:max(0, steps-1)])
	x := make([]float64, n)
	for i := 0; i < steps; i++ {
		Axpy(s[i], vs[i], x)
	}
	deflate(x)
	if nx := Norm2(x); nx > 0 {
		Scale(1/nx, x)
	}
	return x
}
