// Package partition defines partitions of weighted graphs and the cost
// measures of the repartitioning problem (§4 of the paper):
//
//	C_repartition(Π̂, Π, α, β) = C_cut(Π̂) + α·C_migrate(Π, Π̂) + β·C_balance(Π̂)
//
// together with the shared building blocks of the partitioners: graph-growing
// bisection, Fiduccia–Mattheyses refinement, and the Hungarian algorithm used
// for the Biswas–Oliker subset permutation Π̃.
package partition

import (
	"fmt"

	"pared/internal/graph"
)

// EdgeCut returns the total weight of edges joining different parts.
func EdgeCut(g *graph.Graph, parts []int32) int64 {
	var cut int64
	for v := int32(0); v < int32(g.N()); v++ {
		g.Neighbors(v, func(u int32, w int64) {
			if v < u && parts[v] != parts[u] {
				cut += w
			}
		})
	}
	return cut
}

// TwoLevelCut decomposes the edge cut of a two-level (node × core)
// assignment: inter is the weight of edges whose endpoints live on different
// node groups (parts differ in v/coresPerNode), intra the weight of edges cut
// between cores of one group. inter + intra == EdgeCut(g, parts). The
// hierarchical repartitioner reports the two separately because they price
// differently — inter-node edges cross the slow network.
func TwoLevelCut(g *graph.Graph, parts []int32, coresPerNode int32) (inter, intra int64) {
	for v := int32(0); v < int32(g.N()); v++ {
		g.Neighbors(v, func(u int32, w int64) {
			if v < u && parts[v] != parts[u] {
				if parts[v]/coresPerNode != parts[u]/coresPerNode {
					inter += w
				} else {
					intra += w
				}
			}
		})
	}
	return inter, intra
}

// PartWeights returns the total vertex weight of each part.
func PartWeights(g *graph.Graph, parts []int32, p int) []int64 {
	w := make([]int64, p)
	for v, pt := range parts {
		w[pt] += g.VW[v]
	}
	return w
}

// Imbalance returns max_i W_i / (ΣW / p) − 1, the paper's ε.
func Imbalance(g *graph.Graph, parts []int32, p int) float64 {
	w := PartWeights(g, parts, p)
	var total, maxw int64
	for _, x := range w {
		total += x
		if x > maxw {
			maxw = x
		}
	}
	if total == 0 {
		return 0
	}
	avg := float64(total) / float64(p)
	return float64(maxw)/avg - 1
}

// BalanceCost returns Σᵢ (Wᵢ − W̄)², the quadratic imbalance measure in
// Equation 1.
func BalanceCost(g *graph.Graph, parts []int32, p int) float64 {
	w := PartWeights(g, parts, p)
	var total int64
	for _, x := range w {
		total += x
	}
	avg := float64(total) / float64(p)
	sum := 0.0
	for _, x := range w {
		d := float64(x) - avg
		sum += d * d
	}
	return sum
}

// MigrationCost returns the total vertex weight that changes parts between
// the two assignments: C_migrate(Π, Π̂). In PARED's setting the vertex weight
// is the leaf count of the refinement tree, so this is exactly the number of
// fine mesh elements that must move.
func MigrationCost(vw []int64, old, new []int32) int64 {
	if len(old) != len(new) || len(vw) != len(old) {
		panic("partition: MigrationCost length mismatch")
	}
	var c int64
	for v := range old {
		if old[v] != new[v] {
			c += vw[v]
		}
	}
	return c
}

// WeightedMigrationCost returns Σ d(old[v], new[v])·vw[v], the §8 measure
// where moving an element across k hops of the processor graph H costs k
// times its weight. dist must be H's all-pairs hop-distance table.
func WeightedMigrationCost(vw []int64, old, new []int32, dist [][]int32) int64 {
	var c int64
	for v := range old {
		if old[v] != new[v] {
			d := dist[old[v]][new[v]]
			if d < 0 {
				d = int32(len(dist)) // disconnected: worst case diameter bound
			}
			c += int64(d) * vw[v]
		}
	}
	return c
}

// AdjacentSubdomains returns the average and maximum number of distinct
// neighbor parts per part — the secondary communication-cost measure §3
// identifies for high-latency networks ("the number of adjacent
// subdomains").
func AdjacentSubdomains(g *graph.Graph, parts []int32, p int) (avg float64, max int) {
	seen := make([]uint64, (p*p+63)/64) // bit a·p+b: parts a and b touch
	deg := make([]int, p)
	for v := int32(0); v < int32(g.N()); v++ {
		g.Neighbors(v, func(u int32, _ int64) {
			a, b := parts[v], parts[u]
			if i := int(a)*p + int(b); a != b && seen[i/64]&(1<<(i%64)) == 0 {
				seen[i/64] |= 1 << (i % 64)
				deg[a]++
			}
		})
	}
	total := 0
	for _, d := range deg {
		total += d
		if d > max {
			max = d
		}
	}
	return float64(total) / float64(p), max
}

// DisconnectedParts counts parts that induce more than one connected
// component in g — §8's concern that rebalancing schemes risk "creating
// disconnected subsets in each processor".
func DisconnectedParts(g *graph.Graph, parts []int32, p int) int {
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	pieces := make([]int, p)
	for s := int32(0); s < int32(g.N()); s++ {
		if comp[s] >= 0 {
			continue
		}
		pieces[parts[s]]++
		comp[s] = parts[s]
		stack := []int32{s}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.Neighbors(v, func(u int32, _ int64) {
				if comp[u] < 0 && parts[u] == parts[v] {
					comp[u] = parts[u]
					stack = append(stack, u)
				}
			})
		}
	}
	bad := 0
	for pt := 0; pt < p; pt++ {
		if pieces[pt] > 1 {
			bad++
		}
	}
	return bad
}

// Check validates that parts is a proper assignment into p parts.
func Check(parts []int32, p int) error {
	for v, pt := range parts {
		if pt < 0 || int(pt) >= p {
			return fmt.Errorf("partition: vertex %d assigned to %d (p=%d)", v, pt, p)
		}
	}
	return nil
}
