// Package detfloat is a paredlint fixture for the detfloat check:
// order-dependent float accumulation in map ranges and kern bodies.
package detfloat

import "pared/internal/kern"

// sumMap folds map values in randomized iteration order: the last bit of the
// result differs run to run.
func sumMap(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want "float accumulation into total in map-iteration order"
	}
	return total
}

// fixedSlot accumulates every value into one element — same bug, one level
// of indexing down.
func fixedSlot(m map[int]float64, out []float64) {
	for _, v := range m {
		out[0] += v // want "float accumulation into out in map-iteration order"
	}
}

// kernAcc folds chunk partials in scheduling order (and races).
func kernAcc(xs []float64) float64 {
	total := 0.0
	kern.For(len(xs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total += xs[i] // want "fold per-chunk partials with kern.Sum"
		}
	})
	return total
}

// addTo accumulates through its pointer parameter.
func addTo(acc *float64, v float64) {
	*acc += v
}

// viaPointer is the interprocedural positive: the accumulation happens one
// call away, visible only through the call graph's float-accumulator summary.
func viaPointer(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m {
		addTo(&total, v) // want "addTo accumulates into total through this pointer"
	}
	return total
}

// okKeyed updates a slot keyed by the iteration variable: one update per
// key, order invisible — no finding.
func okKeyed(add map[int32]float64, x []float64) {
	for i, v := range add {
		x[i] += v
	}
}

// okInt: integer accumulation is exact, reordering cannot change it — no
// finding.
func okInt(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// okLocal accumulates into a per-iteration local and stores it keyed — no
// finding.
func okLocal(m map[int][]float64, out []float64) {
	for k, vs := range m {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		out[k] = s
	}
}
