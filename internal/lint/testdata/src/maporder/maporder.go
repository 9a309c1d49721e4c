// Package maporder is a paredlint fixture: a want comment marks a line the
// maporder check must flag, with a regexp the message must match. Testdata
// packages are in scope for every check regardless of import path.
package maporder

import (
	"slices"
	"sort"
)

// sumInts accumulates integers: exact, commutative, order-insensitive.
func sumInts(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// sumFloats accumulates floats: rounding makes the result order-sensitive.
func sumFloats(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m { // want "iteration over map"
		total += v
	}
	return total
}

// balanceCost sums squared deviations in map order, so the rounding of the
// sum, and every cost comparison made with it, depends on the iteration
// order. This is the shape of the check's lint-only catch: the same loop
// planted in partition.BalanceCost failed no test.
func balanceCost(w map[int]int64, avg float64) float64 {
	sum := 0.0
	for _, x := range w { // want "iteration over map"
		d := float64(x) - avg
		sum += d * d
	}
	return sum
}

// collectSorted follows the canonical collect-keys-then-sort idiom.
func collectSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectSlicesSorted is the same idiom through package slices.
func collectSlicesSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// collectSlicesSearched calls into package slices but never sorts.
func collectSlicesSearched(m map[string]int) bool {
	var keys []string
	for k := range m { // want "iteration over map"
		keys = append(keys, k)
	}
	return slices.Contains(keys, "x")
}

// collectUnsorted appends in iteration order and never sorts.
func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want "iteration over map"
		keys = append(keys, k)
	}
	return keys
}

// collectFiltered filters on the iteration variables before the append.
func collectFiltered(m map[string]int) []string {
	var keys []string
	for k, v := range m {
		if v > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// perKeyWrite touches disjoint state per iteration.
func perKeyWrite(m map[int]float64, out []float64) {
	for k, v := range m {
		out[k] = v
	}
}

// appendValue reads loop-written state other than through a keyed index.
func appendValue(m map[int]float64) float64 {
	last := 0.0
	for _, v := range m { // want "iteration over map"
		last = v
	}
	return last
}
