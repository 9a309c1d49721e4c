package pared

// Coordinator-free repartitioning over a space-filling curve (Burstedde &
// Holke style). The PNR pipeline funnels P2/P3 through rank 0: weights are
// gathered there, a serial multilevel KL refines the partition, and the owner
// delta is broadcast back — the one remaining serial wall after the
// incremental pipeline. The SFC mode removes it by changing the partitioning
// problem itself: order the coarse elements along a Hilbert curve through
// their centroids and slice the total leaf weight into P equal bands.
//
// The decisive structural fact is that the coarse mesh AND the owner map are
// replicated on every rank — only the weights (leaf counts of the live
// refinement trees) are distributed. The curve order is a pure function of
// the replicated geometry, so every rank computes it once, identically, and
// caches it. Steady state then needs exactly two O(1)-payload collectives:
//
//	off = ExclusiveScanInt64(localWeight)   // my global curve offset
//	W   = AllReduceSumInt64(localWeight)    // total weight
//
// after which each rank places its own elements on the weight axis and only
// the (root, newOwner) changes are exchanged. No rank ever gathers the graph;
// no rank runs O(N) serial refinement. The scan is exact because the current
// ownership is curve-contiguous (band form): the elements of ranks 0..r−1
// are exactly the elements preceding rank r's on the curve, so the scan of
// local weights IS the curve prefix sum.
//
// Band form is an invariant the mode maintains, not an assumption: snapping
// is proven monotone (see sfc.AssignLocal), so SFC output is always band
// form. The invariant can only be violated from outside — a bootstrap from
// another partitioner, or a mid-run switch from PNR mode. Both are detected
// locally (the owner map is replicated; checking monotonicity along the
// cached curve costs O(N) integer compares and agrees on every rank) and
// handled by a one-epoch fallback: each rank contributes its (root, weight)
// pairs to a symmetric all-gather and every rank computes the full band
// assignment identically. The next epoch is band form and takes the scan
// path.

import (
	"slices"
	"time"

	"pared/internal/check"
	"pared/internal/core"
	"pared/internal/graph"
	"pared/internal/mesh"
	"pared/internal/par"
	"pared/internal/partition"
	"pared/internal/partition/sfc"
)

// RebalanceMode selects the engine's repartitioning pipeline.
type RebalanceMode int

const (
	// ModePNR is the paper's pipeline: weights gathered at the coordinator,
	// serial (multilevel KL) repartitioning, owner delta broadcast back.
	ModePNR RebalanceMode = iota
	// ModeSFC is the coordinator-free pipeline: Hilbert-order band
	// partitioning from a distributed prefix sum; every rank computes its own
	// assignment. Config.Repartition is ignored.
	ModeSFC
	// ModeHier is the hierarchical two-level pipeline (see hier.go): phase A
	// partitions G among node groups with inter-node edges penalized, phase B
	// refines each group's induced subgraph over its node sub-communicator.
	// Config.Topology shapes the levels; Config.Repartition and
	// Config.DistRefine are ignored (the mode is inherently distributed).
	ModeHier
)

// sfcState caches everything derivable from the replicated coarse mesh —
// curve keys, curve order and its inverse, the unit-weight coarse dual used
// for cut reporting — plus the per-epoch scratch, so steady-state epochs
// allocate nothing.
type sfcState struct {
	keys  []uint64
	order []int32 // order[k] = element at curve position k
	pos   []int32 // pos[e] = curve position of element e
	dual  *graph.Graph

	sortScratch   sfc.SortScratch
	assignScratch sfc.AssignScratch
	localRoots    []int32 // owned roots in curve order
	localW        []int64 // weights parallel to localRoots
	localOut      []int32 // new bands parallel to localRoots
	delta         []int32 // (root, owner) pairs this rank changed
	wirePairs     []int64 // fallback payload: (root, weight) pairs
	fullVW        []int64 // fallback scratch: complete weight vector
	newOwner      []int32 // this epoch's result buffer
	spareOwner    []int32 // last epoch's, which the engine may still hold as e.Owner

	// cutOwner is a copy of the owner map the last epoch produced and cut its
	// unit-weight cut: the next epoch's CutBefore while e.Owner still equals
	// it (see sfcState.cuts).
	cutOwner []int32
	cut      int64
}

// ensureSFC builds the cached curve structures on first use. The coarse
// topology is invariant for the run (adaptation refines trees, never the
// coarse mesh), so this happens once.
func (e *Engine) ensureSFC() *sfcState {
	if e.sfc == nil {
		s := &sfcState{}
		s.keys = sfc.Keys(e.Coarse, sfc.Hilbert)
		s.order, s.pos = sfc.Order(s.keys)
		s.dual = graph.FromDual(e.Coarse)
		e.sfc = s
	}
	return e.sfc
}

// bandForm reports whether owner is non-decreasing along the curve order —
// the condition under which a rank's exclusive scan of local weight equals
// its elements' global curve prefix. owner is replicated, so every rank
// reaches the same verdict without communicating.
func bandForm(order, owner []int32) bool {
	for k := 1; k < len(order); k++ {
		if owner[order[k]] < owner[order[k-1]] {
			return false
		}
	}
	return true
}

// planSFC runs phases P1–P3 of the coordinator-free strategy and returns
// the new owner map (read-only view into scratch) plus per-phase durations.
// Cut values in st are unit-weight coarse dual cuts — comparable across SFC
// epochs and with the experiments' coarse-cut metric, but not with PNR's
// leaf-pair-weighted cut.
func (e *Engine) planSFC(st *RebalanceStats) (newOwner []int32, d1, d2, d3 time.Duration) {
	s := e.ensureSFC()
	p := e.Comm.Size()

	// --- P1: local weights, in curve order. Roots() is ascending by id and
	// the radix sort is stable, so equal keys stay id-ordered — the same
	// total order every rank uses.
	var myW int64
	d1 = timed(func() {
		roots := e.F.Roots()
		if cap(s.localRoots) < len(roots) {
			s.localRoots = make([]int32, len(roots))
			s.localW = make([]int64, len(roots))
			s.localOut = make([]int32, len(roots))
		}
		s.localRoots = s.localRoots[:len(roots)]
		copy(s.localRoots, roots)
		sfc.SortByKey(s.keys, s.localRoots, &s.sortScratch)
		s.localW = s.localW[:len(roots)]
		s.localOut = s.localOut[:len(roots)]
		myW = 0
		for i, r := range s.localRoots {
			w := int64(e.F.LeafCount(r))
			s.localW[i] = w
			myW += w
		}
	})
	e.trace("P1 weights: %d roots, local weight %d in %v (sfc)", len(s.localRoots), myW, d1)

	banded := bandForm(s.order, e.Owner)
	var deltas [][]int32 // the scan path's all-gathered (root, owner) changes
	if banded {
		// --- P2: the two scalar collectives. Payloads are O(1) per rank.
		var off, total int64
		d2 = timed(func() {
			off = e.Comm.ExclusiveScanInt64(myW)
			total = e.Comm.AllReduceSumInt64(myW)
		})
		e.trace("P2 scan: offset %d of %d in %v (sfc)", off, total, d2)

		// --- P3: place own elements, exchange only the changes.
		d3 = timed(func() {
			sfc.AssignLocal(s.localRoots, s.localW, off, total, e.Owner, p, true, s.localOut)
			s.delta = s.delta[:0]
			for i, r := range s.localRoots {
				if s.localOut[i] != e.Owner[r] {
					s.delta = append(s.delta, r, s.localOut[i])
				}
			}
			deltas = e.Comm.AllGatherInt32(s.delta)
			if cap(s.newOwner) < len(e.Owner) {
				s.newOwner = make([]int32, len(e.Owner))
			}
			s.newOwner = s.newOwner[:len(e.Owner)]
			copy(s.newOwner, e.Owner)
			// Each root is owned by exactly one rank, so the patches are
			// disjoint and application order cannot matter.
			for _, pairs := range deltas {
				for i := 0; i < len(pairs); i += 2 {
					s.newOwner[pairs[i]] = pairs[i+1]
				}
			}
			newOwner = s.newOwner
		})
		e.trace("P3 band assign: %d moved entries in %v (sfc scan path)", len(s.delta)/2, d3)
	} else {
		// Ownership is not curve-contiguous (foreign bootstrap or a mode
		// switch): a local scan offset would not be a curve prefix. Fall back
		// to one symmetric weight exchange; every rank then computes the full
		// assignment from identical inputs — still no coordinator, and the
		// snapped result is band form, so this costs one epoch.
		d2 = timed(func() {
			if cap(s.wirePairs) < 2*len(s.localRoots) {
				s.wirePairs = make([]int64, 2*len(s.localRoots))
			}
			s.wirePairs = s.wirePairs[:0]
			for i, r := range s.localRoots {
				s.wirePairs = append(s.wirePairs, int64(r), s.localW[i])
			}
			all := e.Comm.AllGatherInt64(s.wirePairs)
			if cap(s.fullVW) < len(e.Owner) {
				s.fullVW = make([]int64, len(e.Owner))
			}
			s.fullVW = s.fullVW[:len(e.Owner)]
			for i := range s.fullVW {
				s.fullVW[i] = 0
			}
			for _, pairs := range all {
				for i := 0; i < len(pairs); i += 2 {
					s.fullVW[pairs[i]] = pairs[i+1]
				}
			}
		})
		e.trace("P2 gather: full weights (non-band-form owner) in %v (sfc fallback)", d2)
		d3 = timed(func() {
			s.newOwner = sfc.Assign(s.order, s.fullVW, e.Owner, p, true, s.newOwner, &s.assignScratch)
			newOwner = s.newOwner
		})
		e.trace("P3 full assign in %v (sfc fallback path)", d3)
	}

	st.CutBefore, st.CutAfter = s.cuts(e.Owner, newOwner, banded, deltas)
	// The engine adopts newOwner as e.Owner, so next epoch must write into
	// the other buffer: the steady state cycles two arrays and never
	// allocates.
	s.newOwner, s.spareOwner = s.spareOwner, s.newOwner
	return newOwner, d1, d2, d3
}

// cuts returns the unit-weight coarse cut of the owner maps before and after
// an epoch, from the replicated dual: local arithmetic, identical on every
// rank, that costs what moved. CutBefore is the cut cached with the map the
// last epoch produced while old still equals it; otherwise — the fallback
// path, the first epoch, a mode switch, a caller that edited Engine.Owner —
// it is a full partition.EdgeCut. On the scan path, CutAfter is CutBefore
// plus the change on each dual edge incident to a tree in the all-gathered
// deltas; on the fallback, which gathers no deltas, a full EdgeCut.
func (s *sfcState) cuts(old, newOwner []int32, banded bool, deltas [][]int32) (before, after int64) {
	if slices.Equal(old, s.cutOwner) {
		before = s.cut
	} else {
		before = partition.EdgeCut(s.dual, old)
	}
	if banded {
		after = before + cutChange(s.dual, old, newOwner, deltas)
	} else {
		after = partition.EdgeCut(s.dual, newOwner)
	}
	if check.Enabled {
		wantBefore, wantAfter := partition.EdgeCut(s.dual, old), partition.EdgeCut(s.dual, newOwner)
		check.Assertf(before == wantBefore && after == wantAfter,
			"pared: sfc cuts %d -> %d, full EdgeCut %d -> %d", before, after, wantBefore, wantAfter)
	}
	s.cutOwner = append(s.cutOwner[:0], newOwner...)
	s.cut = after
	return before, after
}

// cutChange returns the change of g's edge cut when the trees named in the
// (root, owner) delta lists move from their owners in old to those in
// newOwner: only an edge incident to a moved tree can change sides, and an
// edge between two moved trees is counted from its smaller end.
func cutChange(g *graph.Graph, old, newOwner []int32, deltas [][]int32) int64 {
	var d int64
	for _, pairs := range deltas {
		for i := 0; i < len(pairs); i += 2 {
			r := pairs[i]
			for k := g.Xadj[r]; k < g.Xadj[r+1]; k++ {
				u := g.Adj[k]
				if u < r && old[u] != newOwner[u] {
					continue // both moved: counted from u
				}
				if old[r] != old[u] {
					d -= g.EW[k]
				}
				if newOwner[r] != newOwner[u] {
					d += g.EW[k]
				}
			}
		}
	}
	return d
}

// BootstrapWith computes an initial partition of the coarse mesh and
// constructs the engine on every rank, honoring cfg.Mode. PNR mode mirrors
// PARED's startup — the coordinator partitions and broadcasts. SFC mode has
// no coordinator even here: every rank derives the identical unit-weight
// band partition from the replicated mesh with zero collectives. A cfg that
// SetConfig rejects panics with that error's text.
func BootstrapWith(c *par.Comm, coarseMesh *mesh.Mesh, cfg Config) *Engine {
	var owner []int32
	if cfg.Mode == ModeSFC {
		keys := sfc.Keys(coarseMesh, sfc.Hilbert)
		order, _ := sfc.Order(keys)
		vw := make([]int64, coarseMesh.NumElems())
		for i := range vw {
			vw[i] = 1
		}
		var scratch sfc.AssignScratch
		owner = sfc.Assign(order, vw, nil, c.Size(), false, nil, &scratch)
	} else {
		if c.Rank() == 0 {
			g := graph.FromDual(coarseMesh)
			owner = core.Partition(g, c.Size(), core.Config{})
		}
		owner = c.BcastInt32(0, owner)
	}
	eng, err := New(c, coarseMesh, owner) // never rejects: owner is built above
	if err == nil {
		err = eng.SetConfig(cfg)
	}
	if err != nil {
		panic(err.Error())
	}
	return eng
}
