// Package rsb implements Recursive Spectral Bisection: each bisection splits
// the (sub)graph at the weighted median of its Fiedler vector — the
// eigenvector of the second-smallest eigenvalue of the graph Laplacian.
//
// For large graphs the Fiedler vector is computed multilevel, following
// Barnard & Simon's fast RSB (the paper's reference [2]): contract by
// heavy-edge matching, solve the small eigenproblem with Lanczos, then
// interpolate back up with damped-Jacobi smoothing of the Rayleigh quotient.
package rsb

import (
	"math"
	"sort"

	"pared/internal/graph"
	"pared/internal/la"
	"pared/internal/partition"
)

// Config tunes the partitioner. The zero value is ready to use.
type Config struct {
	// Seed drives Lanczos start vectors and matching (default 1).
	Seed int64
}

const (
	// lanczosTol is the eigenpair residual tolerance.
	lanczosTol = 1e-6
	// coarsenTo is the graph size at which Lanczos runs directly.
	coarsenTo = 600
	// smoothSteps is the number of damped-Jacobi refinement sweeps applied
	// to the interpolated Fiedler vector per level.
	smoothSteps = 12
)

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Partition divides g into p parts by recursive spectral bisection.
func Partition(g *graph.Graph, p int, cfg Config) []int32 {
	cfg = cfg.withDefaults()
	return partition.RecursiveBisect(g, p, func(sub *graph.Graph, targets [2]int64, level int) []int32 {
		return Bisect(sub, targets, cfg, int64(level)*104729)
	})
}

// Bisect splits g in two at the weighted median of its Fiedler vector.
func Bisect(g *graph.Graph, targets [2]int64, cfg Config, salt int64) []int32 {
	cfg = cfg.withDefaults()
	return medianSplit(g, FiedlerVector(g, cfg, salt), targets[0])
}

// FiedlerVector computes (an approximation of) the Fiedler vector of g,
// multilevel for large graphs.
func FiedlerVector(g *graph.Graph, cfg Config, salt int64) []float64 {
	cfg = cfg.withDefaults()
	if g.N() <= coarsenTo {
		return la.Fiedler(g.Laplacian(), lanczosTol, 400, cfg.Seed+salt)
	}
	match := graph.HeavyEdgeMatching(g, cfg.Seed+salt, nil)
	cg, f2c := graph.Contract(g, match)
	if cg.N() >= g.N()*19/20 {
		return la.Fiedler(g.Laplacian(), lanczosTol, 400, cfg.Seed+salt)
	}
	cx := FiedlerVector(cg, cfg, salt+1)
	x := make([]float64, g.N())
	for v := range x {
		x[v] = cx[f2c[v]]
	}
	smooth(g, x)
	return x
}

// smooth applies damped-Jacobi sweeps x ← x − ω·D⁻¹·L·x with deflation of
// the constant vector, sharpening the interpolated Fiedler approximation
// (the smoothing damps high-frequency interpolation error fastest).
func smooth(g *graph.Graph, x []float64) {
	n := g.N()
	deg := make([]float64, n)
	for v := int32(0); v < int32(n); v++ {
		var d int64
		g.Neighbors(v, func(_ int32, w int64) { d += w })
		deg[v] = float64(d)
		if deg[v] == 0 {
			deg[v] = 1
		}
	}
	lx := make([]float64, n)
	const omega = 0.6
	for s := 0; s < smoothSteps; s++ {
		for v := int32(0); v < int32(n); v++ {
			acc := deg[v] * x[v]
			g.Neighbors(v, func(u int32, w int64) { acc -= float64(w) * x[u] })
			lx[v] = acc
		}
		mean := 0.0
		for v := 0; v < n; v++ {
			x[v] -= omega * lx[v] / deg[v]
			mean += x[v]
		}
		mean /= float64(n)
		norm := 0.0
		for v := range x {
			x[v] -= mean
			norm += x[v] * x[v]
		}
		if norm > 0 {
			inv := 1 / math.Sqrt(norm)
			for v := range x {
				x[v] *= inv
			}
		}
	}
}

// medianSplit assigns the vertices with the smallest Fiedler values to part 0
// until its weight reaches target0 (weighted median split).
func medianSplit(g *graph.Graph, x []float64, target0 int64) []int32 {
	n := g.N()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		if x[order[i]] < x[order[j]] {
			return true
		}
		if x[order[j]] < x[order[i]] {
			return false
		}
		return order[i] < order[j]
	})
	parts := make([]int32, n)
	for i := range parts {
		parts[i] = 1
	}
	var w0 int64
	for _, v := range order {
		if w0 >= target0 {
			break
		}
		if abs64(w0+g.VW[v]-target0) <= abs64(w0-target0) {
			parts[v] = 0
			w0 += g.VW[v]
		} else {
			break
		}
	}
	return parts
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
