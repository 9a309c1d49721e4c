// Package mlkl implements a Chaco-style Multilevel-KL graph partitioner:
// recursive bisection where each bisection contracts the graph by heavy-edge
// matching, partitions the coarsest graph by region growing, and refines with
// Fiduccia–Mattheyses passes while projecting back up the level hierarchy.
// This is the standard-partitioner baseline the paper compares PNR against in
// Figure 3.
package mlkl

import (
	"pared/internal/graph"
	"pared/internal/partition"
)

// Config tunes the partitioner. The zero value is ready to use.
type Config struct {
	// Seed drives matching and growth randomization (default 1).
	Seed int64
}

const (
	coarsenTo = 64   // contraction stops when the graph is this small
	fmPasses  = 6    // refinement passes per level
	eps       = 0.02 // allowed imbalance fraction per bisection
)

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Partition divides g into p parts of approximately equal vertex weight.
// One contraction scratch threads through every bisection of the recursive
// decomposition (they run strictly sequentially), so the whole p-way
// partition reuses a single set of coarsening buffers.
func Partition(g *graph.Graph, p int, cfg Config) []int32 {
	cfg = cfg.withDefaults()
	scratch := new(graph.ContractScratch)
	return partition.RecursiveBisect(g, p, func(sub *graph.Graph, targets [2]int64, level int) []int32 {
		return bisect(scratch, sub, targets, cfg, int64(level)*7919)
	})
}

// Bisect computes one multilevel 2-way split of g with the given weight
// targets.
func Bisect(g *graph.Graph, targets [2]int64, cfg Config, salt int64) []int32 {
	cfg = cfg.withDefaults()
	return bisect(new(graph.ContractScratch), g, targets, cfg, salt)
}

func bisect(scratch *graph.ContractScratch, g *graph.Graph, targets [2]int64, cfg Config, salt int64) []int32 {
	tolW := tol(g, targets)
	if g.N() <= coarsenTo {
		parts := partition.GrowBisection(g, targets[0], cfg.Seed+salt)
		partition.FM2Refine(g, parts, targets, tolW, fmPasses*2)
		return parts
	}
	match := graph.HeavyEdgeMatching(g, cfg.Seed+salt, nil)
	cg, f2c := graph.ContractInto(g, match, scratch)
	var parts []int32
	if cg.N() >= g.N()*19/20 {
		// Matching stalled (e.g. star graphs); fall back to direct bisection.
		parts = partition.GrowBisection(g, targets[0], cfg.Seed+salt)
	} else {
		cparts := bisect(scratch, cg, targets, cfg, salt+1)
		parts = make([]int32, g.N())
		for v := range parts {
			parts[v] = cparts[f2c[v]]
		}
	}
	partition.FM2Refine(g, parts, targets, tolW, fmPasses)
	return parts
}

// tol converts the relative imbalance allowance into an absolute weight
// deviation, never below the largest vertex weight (which is unavoidable).
func tol(g *graph.Graph, targets [2]int64) int64 {
	t := int64(eps * float64(targets[0]+targets[1]) / 2)
	var maxVW int64 = 1
	for _, w := range g.VW {
		if w > maxVW {
			maxVW = w
		}
	}
	if t < maxVW {
		t = maxVW
	}
	return t
}
