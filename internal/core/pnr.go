// Package core implements Parallel Nested Repartitioning (PNR), the paper's
// primary contribution: a repartitioning algorithm for the weighted coarse
// dual graph G of an adaptively refined mesh that keeps the cut small and the
// load balanced while migrating very few elements.
//
// PNR is a multilevel scheme modified in the two ways §9 describes:
//
//  1. the coarsest contracted graph is NOT repartitioned — the current
//     assignment carries through, so the starting point of refinement is the
//     existing distribution; and
//
//  2. the local refinement is a Kernighan–Lin variant whose gain reflects the
//     full repartitioning objective of Equation 1:
//
//     C_repartition(Π̂, Π, α, β) = C_cut(Π̂) + α·C_migrate(Π, Π̂) + β·C_balance(Π̂)
//
// Contraction uses heavy-edge matching restricted to vertices in the same
// current part, so every coarse vertex inherits an unambiguous assignment.
// All three gain terms are measured in fine-element units (edge weights count
// adjacent leaf pairs, vertex weights count leaves), which makes the paper's
// constants α = 0.1, β = 0.8 commensurable.
package core

import (
	"pared/internal/check"
	"pared/internal/graph"
	"pared/internal/partition"
	"pared/internal/partition/mlkl"
)

// Config tunes PNR. The zero value uses the paper's parameters.
type Config struct {
	// Alpha weighs migration cost against cut size (paper: 0.1).
	Alpha float64
	// Beta weighs the quadratic balance penalty (paper: 0.8).
	Beta float64
	// Seed drives matching randomization (default 1).
	Seed int64
	// Cycles is the number of multilevel V-cycles per repartition (default
	// 3). Each cycle re-coarsens with a different matching and refines from
	// the previous cycle's result against the same migration origin; extra
	// cycles recover cut quality that a single contraction hierarchy misses,
	// at no migration cost beyond what their gain justifies.
	Cycles int
	// UnrestrictedMatching lifts PNR's same-part matching constraint during
	// contraction (ablation only): matched pairs straddling a part boundary
	// inherit the heavier constituent's assignment, losing the exact
	// correspondence between coarse moves and data movement.
	UnrestrictedMatching bool
	// Hierarchy is never read. Named by bench/probe.go, which only a
	// `benchmark` issue may edit; ROADMAP item 10 (`bench/` housekeeping)
	// deletes this with core.repartition_cached_ms and core.cache_speedup.
	Hierarchy *Hierarchy
	// DistRefine, when non-nil, replaces every serial KL sweep of the
	// V-cycle (refineKL and polishKL alike) with the rank-distributed
	// deterministic sweep of distrefine.go. Every rank of the exchanger must
	// then call Repartition collectively with byte-identical arguments; the
	// results are byte-identical on every rank and invariant under the rank
	// count and GOMAXPROCS. Serial is the single-rank loopback. nil (the
	// default) keeps the serial pipeline unchanged.
	DistRefine Exchanger
}

// Hierarchy is empty: the cross-epoch contraction cache it used to be was
// never hit on any run (DESIGN.md §9). Named by bench/probe.go, which only a
// `benchmark` issue may edit; ROADMAP item 10 (`bench/` housekeeping) deletes
// this with core.repartition_cached_ms and core.cache_speedup.
type Hierarchy struct{}

// NewHierarchy returns an empty Hierarchy. Named by bench/probe.go, which only
// a `benchmark` issue may edit; ROADMAP item 10 (`bench/` housekeeping)
// deletes this with core.repartition_cached_ms and core.cache_speedup.
func NewHierarchy() *Hierarchy { return new(Hierarchy) }

// The tuning no caller sets.
const (
	eps         = 0.01 // target imbalance; the paper reports ε < 0.01
	coarsenTo   = 96   // contraction stops at max(coarsenTo, 4p) vertices
	klPasses    = 4    // KL passes per level
	maxNegMoves = 64   // consecutive non-improving moves that end a KL pass
)

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 {
		c.Alpha = 0.1
	}
	if c.Beta <= 0 {
		c.Beta = 0.8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Cycles <= 0 {
		c.Cycles = 3
	}
	return c
}

// Cost evaluates Equation 1 for a candidate partition newParts given the
// current assignment old.
func Cost(g *graph.Graph, old, newParts []int32, p int, alpha, beta float64) float64 {
	return float64(partition.EdgeCut(g, newParts)) +
		alpha*float64(partition.MigrationCost(g.VW, old, newParts)) +
		beta*partition.BalanceCost(g, newParts, p)
}

// Partition computes an initial p-way partition of g (no prior assignment)
// using the standard multilevel algorithm, as PNR does at t = 0.
func Partition(g *graph.Graph, p int, cfg Config) []int32 {
	return mlkl.Partition(g, p, mlkl.Config{Seed: cfg.withDefaults().Seed})
}

// pnrScratch bundles the reusable work buffers of one Repartition call: the
// KL move machinery and the contraction intermediates. One instance threads
// through every V-cycle and recursion level (all strictly sequential), so
// steady-state repartitioning allocates only the per-level graphs and
// assignment vectors.
type pnrScratch struct {
	kl       klScratch
	contract graph.ContractScratch
}

// Repartition computes a balanced partition of g starting from the current
// assignment old, minimizing Equation 1. old is not modified. The result is
// a function of the arguments alone: nothing is kept between calls. Edge
// weights must be positive: the move scorers take "no weight towards part j
// yet" to mean "no neighbour in part j yet", and a zero-weight edge carries
// no cut to minimize.
func Repartition(g *graph.Graph, old []int32, p int, cfg Config) []int32 {
	cfg = cfg.withDefaults()
	if len(old) != g.N() {
		panic("core: old assignment length mismatch")
	}
	if check.Enabled {
		for k, w := range g.EW {
			check.Assertf(w > 0, "core.Repartition: edge weight %d at CSR slot %d is not positive", w, k)
		}
	}
	scr := new(pnrScratch)
	if runsFlat(g, old, p) {
		parts := append([]int32(nil), old...)
		refineStep(&scr.kl, g, parts, old, p, cfg)
		balanceAndPolish(&scr.kl, g, parts, old, p, cfg)
		return parts
	}
	parts := old
	var best []int32
	bestCost := 0.0
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		cyc := cfg
		cyc.Seed = cfg.Seed + int64(cycle)*65537
		parts = repartitionML(scr, g, parts, old, p, cyc, 0)
		balanceAndPolish(&scr.kl, g, parts, old, p, cyc)
		cost := Cost(g, old, parts, p, cfg.Alpha, cfg.Beta)
		if cycle == 0 || cost < bestCost {
			best = append(best[:0], parts...)
			bestCost = cost
		}
	}
	if cfg.DistRefine == nil {
		// Large restructure: most of the mesh moves regardless, so a fresh
		// multilevel partition relabeled to minimize migration (scratch-
		// remap) can beat incremental refinement — its cut is unconstrained
		// by the chain's history. Both candidates reach ε balance, so they
		// are compared on cut + α·migration, and scratch is adopted only on
		// a clear (>10%) win: near-ties keep the incremental result, whose
		// migration routes stay near the §8 lower estimate.
		//
		// The candidate is skipped under DistRefine: the recursive-bisection
		// partition is inherently serial coordinator work — every rank would
		// idle behind rank 0, re-creating exactly the wall the distributed
		// sweep removes — and its adoptions migrate large tree populations
		// the incremental result would have kept in place. The collective
		// pipeline accepts the V-cycle's incremental best instead; the
		// imbalance bound still holds (forceBalance + the hard-balance
		// polish run every cycle).
		scratch := mlkl.Partition(g, p, mlkl.Config{Seed: cfg.Seed})
		scratch = partition.MinMigrationRelabel(g.VW, old, scratch, p)
		balanceAndPolish(&scr.kl, g, scratch, old, p, cfg)
		cutMig := func(parts []int32) float64 {
			return float64(partition.EdgeCut(g, parts)) +
				cfg.Alpha*float64(partition.MigrationCost(g.VW, old, parts))
		}
		if cutMig(scratch) < 0.9*cutMig(best) {
			best = scratch
		}
	}
	return best
}

// runsFlat chooses Repartition's path. The multilevel hierarchy exists to
// make LARGE corrections cheap: when much weight must cross the machine,
// coarse-level moves carry whole clusters. For small corrections it is
// counterproductive — coarse-level cut chasing moves clusters the fine level
// cannot pull back, inflating migration by an order of magnitude for no cut
// gain — so refinement runs flat (no contraction, and one cycle: without a
// matching to vary the cycles would be identical) unless the weight that must
// leave overloaded parts (the excess) is a substantial fraction of the total.
func runsFlat(g *graph.Graph, old []int32, p int) bool {
	total := g.TotalVW()
	avg := total / int64(p)
	var excess int64
	for _, x := range partition.PartWeights(g, old, p) {
		if x > avg {
			excess += x - avg
		}
	}
	return excess*100 <= total*15
}

// balanceAndPolish finishes a candidate assignment. The safety net first: if
// the soft balance term left residual imbalance, forced boundary moves bring
// it within ε (replicated, and byte-identical, on every rank under
// DistRefine: it is deterministic local arithmetic on replicated state).
// Then the cut polish under a hard balance constraint (see polishKL).
func balanceAndPolish(s *klScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config) {
	forceBalance(s, g, parts, orig, p, cfg)
	polishStep(s, g, parts, orig, p, cfg)
}

// repartitionML is the multilevel recursion: contract (matching restricted to
// vertices sharing both the current assignment and the migration origin),
// recurse, project, refine. The coarsest graph keeps its inherited
// assignment — PNR's modification (a) — so data placement is preserved by
// construction and only the KL refinement moves anything. start is the
// assignment being improved (not modified); orig is the fixed data location
// that migration is charged against.
func repartitionML(scr *pnrScratch, g *graph.Graph, start, orig []int32, p int, cfg Config, depth int) []int32 {
	stop := coarsenTo
	if 4*p > stop {
		stop = 4 * p
	}
	if g.N() <= stop || depth > 40 {
		parts := append([]int32(nil), start...)
		refineStep(&scr.kl, g, parts, orig, p, cfg)
		return parts
	}
	// Cap contracted-vertex weight so coarse-level KL moves stay reversible
	// at finer levels: a giant coarse vertex would migrate a whole region at
	// once and refinement could never pull it back cheaply.
	capW := g.TotalVW() / int64(8*p)
	if capW < 2 {
		capW = 2
	}
	allow := func(u, v int32) bool {
		return start[u] == start[v] && orig[u] == orig[v] && g.VW[u]+g.VW[v] <= capW
	}
	if cfg.UnrestrictedMatching {
		allow = func(u, v int32) bool { return g.VW[u]+g.VW[v] <= capW }
	}
	var match []int32
	if ex := cfg.DistRefine; ex != nil && ex.Size() > 1 {
		// The matching is deterministic serial work on replicated state:
		// every rank would compute the identical array, multiplying the
		// cost by the rank count for nothing. Rank 0 computes, everyone
		// receives; ContractInto only reads the slice, so aliasing the
		// root's buffer across ranks is safe. All ranks reach this branch
		// in lockstep (the 19/20 bail below is a deterministic function of
		// replicated state), so the broadcast is collective-safe.
		if ex.Rank() == 0 {
			match = graph.HeavyEdgeMatching(g, cfg.Seed+int64(depth), allow)
		}
		match = ex.BcastInt32(0, match)
	} else {
		match = graph.HeavyEdgeMatching(g, cfg.Seed+int64(depth), allow)
	}
	cg, f2c := graph.ContractInto(g, match, &scr.contract)
	if cg.N() >= g.N()*19/20 {
		parts := append([]int32(nil), start...)
		refineStep(&scr.kl, g, parts, orig, p, cfg)
		return parts
	}
	cstart := make([]int32, cg.N())
	corig := make([]int32, cg.N())
	if cfg.UnrestrictedMatching {
		// Mixed pairs inherit the heavier constituent's labels.
		heaviest := make([]int64, cg.N())
		for i := range heaviest {
			heaviest[i] = -1
		}
		for v, c := range f2c {
			if g.VW[v] > heaviest[c] {
				heaviest[c] = g.VW[v]
				cstart[c] = start[v]
				corig[c] = orig[v]
			}
		}
	} else {
		for v, c := range f2c {
			cstart[c] = start[v] // consistent: matching never crosses parts
			corig[c] = orig[v]
		}
	}
	cparts := repartitionML(scr, cg, cstart, corig, p, cfg, depth+1)
	parts := make([]int32, g.N())
	for v := range parts {
		parts[v] = cparts[f2c[v]]
	}
	refineStep(&scr.kl, g, parts, orig, p, cfg)
	polishStep(&scr.kl, g, parts, orig, p, cfg)
	return parts
}
