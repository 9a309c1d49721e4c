package la

import "math"

func sqrt(x float64) float64 { return math.Sqrt(x) }

// CGResult reports the outcome of a conjugate-gradient solve.
type CGResult struct {
	Iterations int
	Residual   float64 // final ‖b − Ax‖₂
	Converged  bool
}

// CG solves A·x = b for symmetric positive-definite A with Jacobi
// preconditioning, overwriting x (which supplies the initial guess).
// It stops when the residual norm falls below tol·‖b‖₂ or after maxIter
// iterations.
func CG(a *CSR, b, x []float64, tol float64, maxIter int) CGResult {
	n := a.N
	inv, r, z := make([]float64, n), make([]float64, n), make([]float64, n)
	p, ap := make([]float64, n), make([]float64, n)
	diagInto(a, inv)
	for i := range inv {
		if inv[i] != 0 {
			inv[i] = 1 / inv[i]
		} else {
			inv[i] = 1
		}
	}
	a.MulVec(r, x)
	for i := 0; i < n; i++ {
		r[i] = b[i] - r[i]
		z[i] = inv[i] * r[i]
		p[i] = z[i]
	}
	rz := Dot(r, z)
	bnorm := Norm2(b)
	// Exact zero-rhs guard: any epsilon would rescale the stopping test.
	if bnorm == 0 {
		bnorm = 1
	}
	res := CGResult{}
	for res.Iterations = 0; res.Iterations < maxIter; res.Iterations++ {
		rn := Norm2(r)
		res.Residual = rn
		if rn <= tol*bnorm {
			res.Converged = true
			return res
		}
		a.MulVec(ap, p)
		pap := Dot(p, ap)
		if pap <= 0 {
			// Not SPD (or numerical breakdown); bail with what we have.
			return res
		}
		alpha := rz / pap
		// Fused x/r/z update: one sweep instead of three.
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			z[i] = inv[i] * r[i]
		}
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			p[i] = z[i] + beta*p[i]
		}
	}
	res.Residual = Norm2(r)
	res.Converged = res.Residual <= tol*bnorm
	return res
}

// diagInto writes the diagonal of A (zero where absent) into d.
func diagInto(a *CSR, d []float64) {
	for i := 0; i < a.N; i++ {
		d[i] = 0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) == i {
				d[i] = a.Val[k]
			}
		}
	}
}
