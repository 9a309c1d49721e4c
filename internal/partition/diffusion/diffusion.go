// Package diffusion implements the diffusive repartitioning scheme of the
// paper's references [6] (Walshaw, Cross, Everett) and [7] (Schloegel,
// Karypis, Kumar): the amount of load to move between adjacent processors is
// obtained with Hu and Blake's optimal method — solve the Laplacian system
//
//	L_H · λ = W − W̄
//
// on the processor graph Hᵗ, giving the flow f(i,j) = λ_i − λ_j on each edge
// — and elements are then migrated from subdomain boundaries, choosing the
// moves with the best cut gain until each flow is satisfied.
//
// The paper positions PNR against exactly this family: diffusion "requires
// several iterations in which the same regions of the mesh are repeatedly
// migrated" (§1). The `diffusion` comparison experiment measures both.
package diffusion

import (
	"slices"

	"pared/internal/graph"
	"pared/internal/la"
	"pared/internal/partition"
)

const (
	rounds = 8    // bound on the diffuse-then-migrate iterations
	eps    = 0.02 // target imbalance
)

// Repartition rebalances the assignment old of the weighted graph g into p
// parts by diffusing load along the processor graph. It returns the new
// assignment; the cut is kept small by always migrating the boundary vertex
// with the best cut gain toward the neighbor owed flow.
func Repartition(g *graph.Graph, old []int32, p int) []int32 {
	parts := append([]int32(nil), old...)
	total := g.TotalVW()
	avg := float64(total) / float64(p)
	for round := 0; round < rounds; round++ {
		w := partition.PartWeights(g, parts, p)
		worst := 0.0
		for _, x := range w {
			if d := float64(x) - avg; d > worst {
				worst = d
			}
		}
		if worst <= eps*avg {
			break
		}
		flow := hoBlakeFlow(g, parts, p, w, avg)
		if !migrateFlow(g, parts, p, flow) {
			break // nothing movable
		}
	}
	return parts
}

// hoBlakeFlow solves L_H λ = W − W̄ and returns the desired flow matrix
// flow[i][j] (positive = move that much weight from i to j), for adjacent
// processor pairs only.
func hoBlakeFlow(g *graph.Graph, parts []int32, p int, w []int64, avg float64) [][]float64 {
	h := graph.ProcGraph(g, parts, p)
	lap := h.Laplacian()
	rhs := make([]float64, p)
	for i := 0; i < p; i++ {
		rhs[i] = float64(w[i]) - avg
	}
	// The Laplacian is singular (constants); CG on the deflated system works
	// because rhs ⊥ 1 (Σ(Wᵢ − W̄) = 0 up to rounding, which we remove).
	mean := 0.0
	for _, v := range rhs {
		mean += v
	}
	mean /= float64(p)
	for i := range rhs {
		rhs[i] -= mean
	}
	lam := make([]float64, p)
	la.CG(lap, rhs, lam, 1e-10, 10*p+100)
	flow := make([][]float64, p)
	for i := range flow {
		flow[i] = make([]float64, p)
	}
	for i := int32(0); i < int32(p); i++ {
		h.Neighbors(i, func(j int32, _ int64) {
			flow[i][j] = lam[i] - lam[j]
		})
	}
	return flow
}

// partGain is the cut gain of moving one vertex to part.
type partGain struct {
	part int32
	gain int64
}

// migrateFlow moves boundary vertices to satisfy the positive flows, always
// choosing the highest-cut-gain admissible move. Each vertex moves at most
// once per round (so opposing flows cannot ping-pong it), moves never empty
// a part, and a move is admissible only while it does not overshoot the
// remaining flow by more than half its weight. Returns false if no move was
// possible.
func migrateFlow(g *graph.Graph, parts []int32, p int, flow [][]float64) bool {
	moved := false
	locked := make([]bool, g.N())
	partW := partition.PartWeights(g, parts, p)
	var gains []partGain
	for iter := 0; iter < g.N(); iter++ {
		var selV, selTo int32 = -1, -1
		var selGain int64
		for v := int32(0); v < int32(g.N()); v++ {
			if locked[v] {
				continue
			}
			i := parts[v]
			if partW[i] <= g.VW[v] {
				continue // would empty the part
			}
			// Gains per destination part, kept in ascending part order: on
			// equal gain the smallest part wins, keeping the move sequence
			// deterministic.
			gains = gains[:0]
			g.Neighbors(v, func(u int32, ew int64) {
				j := parts[u]
				if j == i || flow[i][j] < float64(g.VW[v])/2 {
					return
				}
				k := 0
				for k < len(gains) && gains[k].part < j {
					k++
				}
				if k < len(gains) && gains[k].part == j {
					gains[k].gain += ew
				} else {
					gains = slices.Insert(gains, k, partGain{j, ew})
				}
			})
			if len(gains) == 0 {
				continue
			}
			var internal int64
			g.Neighbors(v, func(u int32, ew int64) {
				if parts[u] == i {
					internal += ew
				}
			})
			for _, pg := range gains {
				gain := pg.gain - internal
				if selV < 0 || gain > selGain || (gain == selGain && v < selV) {
					selV, selTo, selGain = v, pg.part, gain
				}
			}
		}
		if selV < 0 {
			return moved
		}
		from := parts[selV]
		parts[selV] = selTo
		locked[selV] = true
		partW[from] -= g.VW[selV]
		partW[selTo] += g.VW[selV]
		flow[from][selTo] -= float64(g.VW[selV])
		flow[selTo][from] += float64(g.VW[selV])
		moved = true
	}
	return moved
}
