// Package pared implements the distributed adaptive engine the paper's
// system is named after: each rank owns a set of refinement history trees,
// adapts them with conformal propagation across rank boundaries, and
// participates in the four repartitioning phases of Figure 2:
//
//	P0  the mesh is adapted (refined / coarsened) in parallel;
//	P1  each rank computes new vertex and edge weights of the coarse dual
//	    graph G for its trees;
//	P2  the weights are sent to the coordinating processor P_C (rank 0);
//	P3  P_C repartitions G and directs ranks to move refinement trees.
//
// Cross-rank conformity uses the deterministic split-edge protocol: a rank
// broadcasts the splits it performed on shard-boundary edges; receivers apply
// the ones that exist locally (retaining the rest) and rerun their closure;
// the loop repeats until a global all-reduce reports quiescence. Because
// vertex IDs and longest-edge choices are deterministic (see internal/forest),
// the fixed point equals the serial refinement of the same mesh.
package pared

import (
	"fmt"
	"slices"
	"time"

	"pared/internal/check"
	"pared/internal/core"
	"pared/internal/forest"
	"pared/internal/graph"
	"pared/internal/mesh"
	"pared/internal/par"
	"pared/internal/partition"
	"pared/internal/refine"
)

// Repartitioner computes a new assignment of coarse elements to ranks from
// the weighted coarse dual graph and the current assignment. core.Repartition
// (PNR) is the default; the experiment harness substitutes RSB or ML-KL here.
type Repartitioner func(g *graph.Graph, old []int32, p int) []int32

// Config tunes the engine.
type Config struct {
	// Mode selects the rebalance strategy: ModePNR (default) funnels P2/P3
	// through the coordinator; ModeSFC is the coordinator-free space-filling-
	// curve strategy (see sfc.go), which ignores Repartition.
	Mode RebalanceMode
	// Topology shapes the ModeHier pipeline: the node × core factorization of
	// the rank count and the inter-node edge penalty. The zero value picks the
	// most balanced factorization and a penalty of 4. Ignored in other modes.
	Topology Topology
	// Repartition computes new assignments in P3. Defaults to PNR with the
	// paper's parameters. Ignored in ModeSFC.
	Repartition Repartitioner
	// ImbalanceTrigger invokes repartitioning when the leaf-count imbalance
	// exceeds this fraction (default 0.05). Rebalance can also be forced.
	ImbalanceTrigger float64
	// PNR tunes the default core.Repartition repartitioner; ignored when
	// Repartition is set. Unless a Hierarchy is supplied, a persistent
	// multilevel cache is installed so epochs under small weight drift reuse
	// contraction hierarchies (see core.Hierarchy).
	PNR core.Config
	// DistRefine distributes the P3 refinement sweep across all ranks
	// (core.Config.DistRefine over this engine's communicator): instead of
	// rank 0 repartitioning alone while the others idle, every rank patches a
	// replicated coarse graph from all-gathered weight deltas and enters
	// core.Repartition collectively, with the KL sweeps rank-split and
	// resolved deterministically (see core/distrefine.go). The owner map
	// comes out byte-identical on every rank with no broadcast, for any rank
	// count. Applies to the default repartitioner only — ignored when
	// Repartition is set (a custom Repartitioner would have to be collective)
	// and in ModeSFC (which has no refinement sweep to distribute).
	DistRefine bool
	// Trace, if set, receives one line per engine phase with timings and
	// volumes (adapt rounds, weight-gather sizes, migration counts).
	Trace TraceFunc

	// strategy is what Rebalance runs between the imbalance probe and the
	// migration; withDefaults resolves it from Mode and DistRefine, and
	// nothing else in the engine looks at those two fields.
	strategy *strategy
}

// withDefaults fills the defaults and resolves the rebalance strategy; it
// fails on a configuration this communicator cannot run.
func (c Config) withDefaults(comm *par.Comm) (Config, error) {
	if c.Mode < 0 || int(c.Mode) >= len(modeStrategies) {
		return c, fmt.Errorf("pared: unknown rebalance mode %d", c.Mode)
	}
	c.strategy = modeStrategies[c.Mode]
	if c.Repartition == nil {
		pnr := c.PNR
		if pnr.Hierarchy == nil {
			// Under DistRefine every rank runs Repartition on byte-identical
			// inputs, so the per-rank caches evolve identically and stay in
			// lockstep without any exchange.
			pnr.Hierarchy = core.NewHierarchy()
		}
		if c.DistRefine && c.Mode == ModePNR {
			pnr.DistRefine = comm
			c.strategy = &replicatedStrategy
		}
		c.Repartition = func(g *graph.Graph, old []int32, np int) []int32 {
			return core.Repartition(g, old, np, pnr)
		}
	}
	if c.ImbalanceTrigger <= 0 {
		c.ImbalanceTrigger = 0.05
	}
	if c.Mode == ModeHier {
		t, err := c.Topology.Resolve(comm.Size())
		if err != nil {
			return c, err
		}
		c.Topology = t
	}
	return c, nil
}

// gfacet is a facet identified by global vertex IDs (sorted; [2] is the
// sentinel ^0 for 2D edges).
type gfacet [3]forest.VertexID

// Engine is one rank's view of the distributed computation.
type Engine struct {
	Comm   *par.Comm
	Coarse *mesh.Mesh
	// Owner maps every coarse element (tree) to its owning rank; replicated.
	Owner []int32
	// F holds this rank's trees.
	F *forest.Forest
	// R is the refiner over F.
	R *refine.Refiner

	cfg Config
	// shared is the conservative set of vertex IDs on (or ever on) the shard
	// boundary; splits of edges with both endpoints here are exchanged.
	shared map[forest.VertexID]bool
	// pending holds remote splits not yet applicable locally.
	pending map[refine.EdgeSplit]bool
	// indicator is Adapt's per-call memo of the estimator, indexed by NodeID;
	// a negative entry means not evaluated yet.
	indicator []float64

	// Incremental rebalance state. G's topology is invariant for the run —
	// adaptation changes weights, never the coarse adjacency — so the
	// coordinator builds the CSR once and ranks report only weight deltas.
	//
	// gCache is the cached coarse dual graph: topology from the replicated
	// coarse mesh, weights accumulated from delta reports. Rank 0 only under
	// the coordinator pipeline; replicated on every rank under DistRefine
	// (each rank folds the same all-gathered deltas in the same order, so the
	// copies stay byte-identical without exchange). lastVW/lastEW are this rank's previous report, the
	// baseline its next delta is computed against; deltas are additive, so
	// tree migration needs no special handling — a departed tree is reported
	// as −last by the old owner and +current by the new one.
	gCache *graph.Graph
	lastVW []int64
	lastEW map[[2]int32]int64

	// sfc caches the curve order and scratch of the ModeSFC pipeline; built
	// lazily on the first SFC rebalance (see ensureSFC).
	sfc *sfcState
	// hier caches the sub-communicators and scratch of the ModeHier pipeline;
	// built lazily on the first hierarchical rebalance (see ensureHier).
	hier *hierState

	// CheapSkips counts Rebalance(force=false) calls that returned after the
	// single fused imbalance probe, before any weight work (see Rebalance).
	CheapSkips int64
	// Phases accumulates this rank's wall time per repartitioning phase
	// across all Rebalance calls, for benchmark reports.
	Phases PhaseDurations
}

// PhaseDurations breaks rebalancing cost into the paper's phases: P1 local
// weight computation, P2 the weight gather, P3 repartitioning plus owner
// distribution and tree migration. Under ModeHier, HierA and HierB further
// split P3's repartitioning time into the node-level phase A and the
// intra-group phase B (both are contained in P3).
type PhaseDurations struct {
	P1, P2, P3   time.Duration
	HierA, HierB time.Duration
}

// New creates the engine on each rank: owner[i] gives the rank of coarse
// element i; the rank keeps only its own trees.
func New(c *par.Comm, coarseMesh *mesh.Mesh, owner []int32) *Engine {
	if len(owner) != coarseMesh.NumElems() {
		panic("pared: owner length must equal coarse element count")
	}
	e := &Engine{
		Comm:    c,
		Coarse:  coarseMesh,
		Owner:   append([]int32(nil), owner...),
		F:       forest.New(coarseMesh.Dim),
		shared:  make(map[forest.VertexID]bool),
		pending: make(map[refine.EdgeSplit]bool),
	}
	// Intern only the vertices of owned elements; IDs are the coarse indices.
	me := int32(c.Rank())
	for i, el := range coarseMesh.Elems {
		if owner[i] != me {
			continue
		}
		var vv [4]int32
		vv[3] = -1
		for k := 0; k < el.Nv(); k++ {
			v := el.V[k]
			vv[k] = e.F.InternVertex(forest.VertexID(v), coarseMesh.Verts[v])
		}
		e.F.AddRoot(int32(i), vv)
	}
	e.R = refine.NewRefiner(e.F)
	e.rebuildShared()
	e.cfg, _ = Config{}.withDefaults(c) // the zero Config has nothing to reject
	return e
}

// SetConfig replaces the engine configuration (call on every rank alike).
// A configuration the communicator cannot run — an unknown Mode, a Topology
// that does not factor the rank count — is returned as an error, the same
// on every rank, and the previous configuration stays in force.
func (e *Engine) SetConfig(cfg Config) error {
	cfg, err := cfg.withDefaults(e.Comm)
	if err != nil {
		return err
	}
	e.cfg = cfg
	return nil
}

// Bootstrap is BootstrapWith under the default configuration.
func Bootstrap(c *par.Comm, coarseMesh *mesh.Mesh) *Engine {
	return BootstrapWith(c, coarseMesh, Config{})
}

// rebuildShared recomputes the conservative shard-boundary vertex set from
// the facets of the current local leaves that have no local partner.
func (e *Engine) rebuildShared() {
	e.shared = make(map[forest.VertexID]bool)
	count := make(map[gfacet]int)
	e.eachLeafFacet(func(f gfacet, _ int32) { count[f]++ })
	for f, n := range count {
		if n == 1 {
			e.shared[f[0]] = true
			e.shared[f[1]] = true
			if f[2] != ^forest.VertexID(0) {
				e.shared[f[2]] = true
			}
		}
	}
}

// eachLeafFacet enumerates the facets of all local leaves as global-ID
// facets, with the leaf's root.
func (e *Engine) eachLeafFacet(fn func(f gfacet, root int32)) {
	e.F.VisitLeaves(func(id forest.NodeID) {
		n := e.F.Node(id)
		nv := n.Nv()
		for skip := 0; skip < nv; skip++ {
			var f gfacet
			f[2] = ^forest.VertexID(0)
			idx := 0
			for k := 0; k < nv; k++ {
				if k != skip {
					f[idx] = e.F.VIDs[n.Verts[k]]
					idx++
				}
			}
			sortGFacet(&f)
			fn(f, n.Root)
		}
	})
}

// cmpGFacet orders facets lexicographically by global vertex IDs.
func cmpGFacet(a, b gfacet) int { return slices.Compare(a[:], b[:]) }

func lessGFacet(a, b gfacet) bool { return cmpGFacet(a, b) < 0 }

// cmpPair orders coarse-element pairs lexicographically.
func cmpPair(a, b [2]int32) int { return slices.Compare(a[:], b[:]) }

func sortGFacet(f *gfacet) {
	if f[0] > f[1] {
		f[0], f[1] = f[1], f[0]
	}
	if f[1] > f[2] {
		f[1], f[2] = f[2], f[1]
	}
	if f[0] > f[1] {
		f[0], f[1] = f[1], f[0]
	}
}

// AdaptStats reports what a distributed adaptation did (per rank, with
// global fields identical on every rank).
type AdaptStats struct {
	// Rounds is the number of exchange rounds until global quiescence.
	Rounds int
	// LocalRefined and LocalCoarsened count this rank's operations.
	LocalRefined, LocalCoarsened int
	// GlobalLeaves is the total leaf count after adaptation.
	GlobalLeaves int64
}

// Adapt performs distributed conformal adaptation (phase P0): leaves with
// indicator above refineTol are refined, with split propagation across rank
// boundaries; if coarsenTol > 0, leaves below it are conformally coarsened
// (interface-touching groups are left alone — remote leaf usage of a shared
// midpoint cannot be checked locally, so the engine is conservative there).
// est is evaluated at most once per node.
func (e *Engine) Adapt(est refine.Estimator, refineTol, coarsenTol float64, maxLevel int32) AdaptStats {
	var st AdaptStats
	// The target sweep and the coarsening predicate share one evaluation per
	// node, memoized by NodeID. A NodeID names one node for the whole call:
	// the closure, which takes slots off the free list (slots no leaf of the
	// sweep held), runs before the coarsening, which only returns slots.
	memo := e.indicator[:0]
	indicator := func(id forest.NodeID) float64 {
		for len(memo) < len(e.F.Nodes) {
			memo = append(memo, -1)
		}
		if memo[id] < 0 {
			memo[id] = est.Indicator(e.F, id)
		}
		return memo[id]
	}
	var targets []forest.NodeID
	e.F.VisitLeaves(func(id forest.NodeID) {
		if e.F.Node(id).Level < maxLevel && indicator(id) > refineTol {
			targets = append(targets, id)
		}
	})
	for _, id := range targets {
		e.R.RefineLeaf(id)
	}
	for {
		st.Rounds++
		st.LocalRefined += e.R.Closure()
		// Collect and filter this round's splits: only shard-boundary edges
		// concern other ranks. Midpoints of shared edges become shared. The
		// wire form is two words per split, (A, B).
		var out []int64
		for _, s := range e.R.TakeNewSplits() {
			if e.shared[s.A] && e.shared[s.B] {
				out = append(out, int64(s.A), int64(s.B))
				e.shared[forest.MidID(s.A, s.B)] = true
			}
		}
		// Exchange with every rank (p is small; neighbor filtering would cut
		// traffic but not change results).
		for from, words := range e.Comm.AllGatherInt64(out) {
			if from == e.Comm.Rank() {
				continue
			}
			for i := 0; i < len(words); i += 2 {
				s := refine.EdgeSplit{A: forest.VertexID(words[i]), B: forest.VertexID(words[i+1])}
				if !e.R.IsSplit(s) {
					e.pending[s] = true
				}
			}
		}
		// Apply pending remote splits in sorted order: MarkSplitByID mutates
		// the refiner, so map-order iteration would make the refinement
		// history (and thus vertex numbering) run-dependent.
		pend := make([]refine.EdgeSplit, 0, len(e.pending))
		for s := range e.pending {
			pend = append(pend, s)
		}
		slices.SortFunc(pend, refine.EdgeSplit.Compare)
		applied := 0
		for _, s := range pend {
			if e.R.MarkSplitByID(s) {
				applied++
				delete(e.pending, s)
				e.shared[forest.MidID(s.A, s.B)] = true
			} else if e.R.IsSplit(s) {
				delete(e.pending, s)
			}
		}
		changed := int64(len(out)/2 + applied)
		if e.Comm.AllReduceSumInt64(changed) == 0 {
			break
		}
	}
	if coarsenTol > 0 {
		st.LocalCoarsened = e.R.Coarsen(func(id forest.NodeID) bool {
			n := e.F.Node(id)
			if n.Parent == forest.NoNode {
				return false
			}
			p := e.F.Node(n.Parent)
			if p.MidV >= 0 && e.shared[e.F.VIDs[p.MidV]] {
				return false // interface midpoint: remote usage unknown
			}
			return indicator(id) < coarsenTol
		})
	}
	e.indicator = memo
	st.GlobalLeaves = e.Comm.AllReduceSumInt64(int64(e.F.NumLeaves()))
	if check.Enabled && e.F.NumLeaves() > 0 {
		// The distributed fixed point must leave every rank's leaf mesh
		// conformal — this is the property the split-exchange loop exists for.
		check.MeshConformal(e.F.LeafMesh().Mesh, "pared.Engine.Adapt")
	}
	e.trace("P0 adapt: %d rounds, +%d/-%d local elements, %d global leaves",
		st.Rounds, st.LocalRefined, st.LocalCoarsened, st.GlobalLeaves)
	return st
}

// Imbalance returns the global leaf-count imbalance max/avg − 1, computed
// from one fused (max, sum) reduction. Every rank derives the same float64
// from the same reduced integers, so decisions taken on the result need no
// further collective agreement.
func (e *Engine) Imbalance() float64 {
	maxL, total := e.Comm.AllReduceMaxSum(int64(e.F.NumLeaves()))
	avg := float64(total) / float64(e.Comm.Size())
	//paredlint:allow floateq -- empty-mesh guard before division
	if avg == 0 {
		return 0
	}
	return float64(maxL)/avg - 1
}

// weightReport is a rank's P2 payload: new vertex and edge weights of G for
// the trees (and tree pairs) it is responsible for.
type weightReport struct {
	Roots []int32 // owned roots
	VW    []int64 // leaf counts, parallel to Roots
	EdgeR []int32 // edge endpoints (r, s) with counted adjacency
	EdgeS []int32
	EdgeW []int64
}

// RebalanceStats reports a repartitioning step (identical on all ranks).
type RebalanceStats struct {
	// Ran is false if imbalance was below the trigger and force was false.
	Ran bool
	// MovedTrees and MovedElements count migrated trees and their leaves.
	MovedTrees, MovedElements int64
	// CutBefore and CutAfter are weighted coarse-graph cut sizes.
	CutBefore, CutAfter int64
	// InterCut and IntraCut decompose CutAfter in ModeHier: weight of edges
	// joining different node groups vs. different cores within one group.
	// Zero in other modes.
	InterCut, IntraCut int64
	// Imbalance is the post-step leaf imbalance.
	Imbalance float64
}

// Rebalance runs one repartitioning epoch: the imbalance probe, the
// configured strategy's P1–P3 (weights, their exchange, the new owners) and
// the migration of the trees whose owner changed. If force is false the step
// is skipped while imbalance is below the configured trigger; the skip is
// decided on the single fused imbalance probe alone — no weight computation,
// gather, or extra agreement collective happens first. force must be the same
// on every rank (the usual SPMD contract; all collectives here assume it).
func (e *Engine) Rebalance(force bool) RebalanceStats {
	var st RebalanceStats
	imb := e.Imbalance()
	if !force && imb <= e.cfg.ImbalanceTrigger {
		// Every rank computed the same imbalance from the same fused
		// reduction, so everyone skips in lockstep.
		e.CheapSkips++
		st.Imbalance = imb
		e.trace("P1 skip: imbalance %.4f <= trigger %.4f (probe only, %d skips so far)",
			imb, e.cfg.ImbalanceTrigger, e.CheapSkips)
		return st
	}
	st.Ran = true

	newOwner, d1, d2, d3 := e.cfg.strategy.plan(e, &st)

	// Migrate trees whose owner changed.
	var moved, movedElems int64
	dm := timed(func() { moved, movedElems = e.migrate(newOwner) })
	st.MovedTrees = e.Comm.AllReduceSumInt64(moved)
	st.MovedElements = e.Comm.AllReduceSumInt64(movedElems)
	e.Owner = newOwner
	if check.Enabled && e.F.NumLeaves() > 0 {
		check.MeshConformal(e.F.LeafMesh().Mesh, "pared.Engine.Rebalance")
	}
	st.Imbalance = e.Imbalance()
	e.Phases.P1 += d1
	e.Phases.P2 += d2
	e.Phases.P3 += d3 + dm
	e.trace("P3 repartition+migrate: cut %d->%d, sent %d trees (%d elements) in %v+%v, imbalance %.4f",
		st.CutBefore, st.CutAfter, moved, movedElems, d3, dm, st.Imbalance)
	return st
}

// strategy fills the P1–P3 slot of Rebalance. plan returns the new owner map
// (identical on every rank, not aliasing e.Owner), writes the cuts to st and
// reports each phase's wall time. The strategies that repartition the
// weighted coarse dual G share planGraph and supply its three steps; the
// curve strategy has a plan of its own (planSFC).
type strategy struct {
	name string
	plan func(e *Engine, st *RebalanceStats) (newOwner []int32, d1, d2, d3 time.Duration)

	// exchange takes this rank's weight delta to the ranks that hold a copy
	// of G and returns, there, every rank's delta indexed by rank; nil on a
	// rank that holds none.
	exchange func(e *Engine, delta []int64) [][]int64
	// decide computes the new owners from the patched G on the ranks that
	// hold it — collectively when that is all of them.
	decide func(e *Engine, g *graph.Graph, st *RebalanceStats) []int32
	// publish, if set, takes rank 0's decision and cuts to the other ranks.
	publish func(e *Engine, newOwner []int32, st *RebalanceStats) []int32
}

// The strategy table. coordinator is the paper's pipeline: G lives on rank 0.
// replicated is Config.DistRefine: every rank holds G and the same
// Repartition call is collective (withDefaults wired the communicator into
// it), so the owner map materializes everywhere with nothing to publish.
// hier is ModeHier (hier.go), sfc is ModeSFC (sfc.go).
var (
	coordinatorStrategy = strategy{name: "coordinator", plan: (*Engine).planGraph,
		exchange: func(e *Engine, delta []int64) [][]int64 { return e.Comm.GatherInt64(0, delta) },
		decide:   repartitionG, publish: bcastOwnerDelta}
	replicatedStrategy = strategy{name: "replicated", plan: (*Engine).planGraph,
		exchange: func(e *Engine, delta []int64) [][]int64 { return e.Comm.AllGatherInt64(delta) },
		decide:   repartitionG}
	hierStrategy = strategy{name: "hier", plan: (*Engine).planGraph,
		exchange: func(e *Engine, delta []int64) [][]int64 { return e.ensureHier().exchangeDeltas(delta) },
		decide:   hierDecide}
	sfcStrategy = strategy{name: "sfc", plan: (*Engine).planSFC}

	// modeStrategies is the strategy of each Mode; DistRefine replaces
	// ModePNR's by replicatedStrategy (see withDefaults).
	modeStrategies = [...]*strategy{ModePNR: &coordinatorStrategy, ModeSFC: &sfcStrategy, ModeHier: &hierStrategy}
)

// planGraph is P1–P3 of every strategy that repartitions G.
func (e *Engine) planGraph(st *RebalanceStats) (newOwner []int32, d1, d2, d3 time.Duration) {
	s := e.cfg.strategy

	// --- P1: local weight computation.
	var rep weightReport
	d1 = timed(func() { rep = e.localWeights() })
	e.trace("P1 weights: %d roots, %d edge pairs in %v", len(rep.Roots), len(rep.EdgeR), d1)

	// --- P2: the additive weight deltas reach the ranks that hold G.
	var deltas [][]int64
	var nd int
	d2 = timed(func() {
		delta := e.deltaReport(rep)
		nd = len(delta)
		deltas = s.exchange(e, delta)
	})
	e.trace("P2 %s exchange: %d delta words in %v", s.name, nd, d2)

	// --- P3: patch G, decide, and make the decision known on every rank.
	d3 = timed(func() {
		if deltas != nil {
			g := e.coordinatorGraph(deltas)
			st.CutBefore = partition.EdgeCut(g, e.Owner)
			newOwner = s.decide(e, g, st)
			st.CutAfter = partition.EdgeCut(g, newOwner)
		}
		if s.publish != nil {
			newOwner = s.publish(e, newOwner, st)
		}
	})
	e.assertPatchedG(rep)
	return newOwner, d1, d2, d3
}

// repartitionG is the decide step of the two flat strategies.
func repartitionG(e *Engine, g *graph.Graph, _ *RebalanceStats) []int32 {
	return e.cfg.Repartition(g, e.Owner, e.Comm.Size())
}

// bcastOwnerDelta broadcasts rank 0's decision as the cut values plus the
// owner entries that changed (see packOwnerDelta).
func bcastOwnerDelta(e *Engine, newOwner []int32, st *RebalanceStats) []int32 {
	var payload []int32
	if e.Comm.Rank() == 0 {
		payload = packOwnerDelta(st.CutBefore, st.CutAfter, e.Owner, newOwner)
	}
	payload = e.Comm.BcastInt32(0, payload)
	if e.Comm.Rank() != 0 {
		newOwner, st.CutBefore, st.CutAfter = unpackOwnerDelta(e.Owner, payload)
	}
	e.trace("P3 owner delta: %d moved entries", (len(payload)-ownerDeltaHeader)/2)
	return newOwner
}

// localWeights computes this rank's contribution to G's weights: leaf counts
// for owned roots, adjacency counts for locally-visible pairs, and — via one
// all-gather of the boundary facets, matched against lower-ranked peers only —
// adjacency across rank boundaries.
func (e *Engine) localWeights() weightReport {
	var rep weightReport
	for _, r := range e.F.Roots() {
		rep.Roots = append(rep.Roots, r)
		rep.VW = append(rep.VW, int64(e.F.LeafCount(r)))
	}
	// Facets internal to the shard: count pairs between different local
	// trees; facets seen once are shard-boundary candidates for the exchange.
	first := make(map[gfacet]int32)
	pair := make(map[[2]int32]int64)
	e.eachLeafFacet(func(f gfacet, root int32) {
		if other, ok := first[f]; ok {
			if other != root {
				k := [2]int32{min(other, root), max(other, root)}
				pair[k]++
			}
			delete(first, f)
			return
		}
		first[f] = root
	})
	// What is left in first is the boundary list; it travels as (v0, v1, v2,
	// root) words in sorted facet order, so the payload is byte-identical
	// across runs.
	bkeys := make([]gfacet, 0, len(first))
	for f := range first {
		bkeys = append(bkeys, f)
	}
	slices.SortFunc(bkeys, cmpGFacet)
	words := make([]int64, 0, 4*len(bkeys))
	for _, f := range bkeys {
		words = append(words, int64(f[0]), int64(f[1]), int64(f[2]), int64(first[f]))
	}
	// Every rank sees every list, but a mixed pair is counted once: the
	// higher rank matches the lower rank's list and owns the count.
	lists := e.Comm.AllGatherInt64(words)
	for src := 0; src < e.Comm.Rank(); src++ {
		w := lists[src]
		for i := 0; i < len(w); i += 4 {
			f := gfacet{forest.VertexID(w[i]), forest.VertexID(w[i+1]), forest.VertexID(w[i+2])}
			if r, ok := first[f]; ok {
				s := int32(w[i+3])
				k := [2]int32{min(r, s), max(r, s)}
				pair[k]++
			}
		}
	}
	keys := make([][2]int32, 0, len(pair))
	for k := range pair {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmpPair)
	for _, k := range keys {
		rep.EdgeR = append(rep.EdgeR, k[0])
		rep.EdgeS = append(rep.EdgeS, k[1])
		rep.EdgeW = append(rep.EdgeW, pair[k])
	}
	return rep
}

// buildG assembles the coarse dual graph from all ranks' full weight
// reports, each in deltaReport's word layout.
func buildG(numRoots int, reports [][]int64) *graph.Graph {
	b := graph.NewBuilder(numRoots)
	for _, d := range reports {
		nr, ne := int(d[0]), int(d[1])
		d = d[2:]
		for i := 0; i < nr; i++ {
			b.SetVW(int32(d[2*i]), d[2*i+1])
		}
		d = d[2*nr:]
		for i := 0; i < ne; i++ {
			b.AddEdge(int32(d[3*i]), int32(d[3*i+1]), d[3*i+2])
		}
	}
	return b.Build()
}

// deltaReport turns a full weight report into the incremental P2 payload:
// only the entries that changed since this rank's previous report, as
// additive int64 deltas. Layout:
//
//	[nRoots, nEdges, (root, Δvw)×nRoots, (r, s, Δew)×nEdges]
//
// Deltas are against what THIS rank last reported (including −last for
// entries it no longer sees), so the coordinator's running sums always equal
// the global weights regardless of how trees moved between ranks. Entries are
// emitted in ascending order, keeping the payload byte-stable across runs.
func (e *Engine) deltaReport(rep weightReport) []int64 {
	n := e.Coarse.NumElems()
	if e.lastVW == nil {
		e.lastVW = make([]int64, n)
		e.lastEW = make(map[[2]int32]int64)
	}
	curVW := make([]int64, n)
	for i, r := range rep.Roots {
		curVW[r] = rep.VW[i]
	}
	var roots []int64
	for r := 0; r < n; r++ {
		if d := curVW[r] - e.lastVW[r]; d != 0 {
			roots = append(roots, int64(r), d)
			e.lastVW[r] = curVW[r]
		}
	}
	curEW := make(map[[2]int32]int64, len(rep.EdgeR))
	for i := range rep.EdgeR {
		curEW[[2]int32{rep.EdgeR[i], rep.EdgeS[i]}] = rep.EdgeW[i]
	}
	keys := make([][2]int32, 0, len(curEW)+len(e.lastEW))
	for k := range curEW {
		keys = append(keys, k)
	}
	for k := range e.lastEW {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmpPair)
	// Keys present in both maps appear twice; after sorting the duplicates are
	// adjacent, so the emit loop skips them.
	var edges []int64
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue
		}
		if d := curEW[k] - e.lastEW[k]; d != 0 {
			edges = append(edges, int64(k[0]), int64(k[1]), d)
		}
	}
	e.lastEW = curEW
	out := make([]int64, 0, 2+len(roots)+len(edges))
	out = append(out, int64(len(roots)/2), int64(len(edges)/3))
	out = append(out, roots...)
	out = append(out, edges...)
	return out
}

// coordinatorGraph returns this rank's cached coarse dual graph with all
// ranks' deltas applied — rank 0's under the coordinator pipeline, every
// rank's under DistRefine (the deltas arrive all-gathered in rank order, so
// the fold is identical everywhere).
// The topology is built once from the replicated coarse mesh
// — G's adjacency is invariant for the run, because adaptation only changes
// how many leaf pairs realize each coarse facet, never which coarse elements
// share one — and only the weights are patched thereafter.
func (e *Engine) coordinatorGraph(deltas [][]int64) *graph.Graph {
	if e.gCache == nil {
		full := graph.FromDual(e.Coarse)
		e.gCache = &graph.Graph{
			Xadj: full.Xadj,
			Adj:  full.Adj,
			VW:   make([]int64, full.N()),
			EW:   make([]int64, len(full.Adj)),
		}
	}
	g := e.gCache
	for rank := 0; rank < len(deltas); rank++ {
		d := deltas[rank]
		nr, ne := int(d[0]), int(d[1])
		d = d[2:]
		for i := 0; i < nr; i++ {
			g.VW[d[2*i]] += d[2*i+1]
		}
		d = d[2*nr:]
		for i := 0; i < ne; i++ {
			r, s, dw := int32(d[3*i]), int32(d[3*i+1]), d[3*i+2]
			patchEdge(g, r, s, dw)
			patchEdge(g, s, r, dw)
		}
	}
	return g
}

// patchEdge adds dw to the directed CSR slot (u → v), located by binary
// search in u's ascending adjacency row. A missing slot means a rank reported
// adjacency the coarse mesh does not have — the topology invariance the whole
// incremental pipeline rests on is broken — so it panics loudly.
func patchEdge(g *graph.Graph, u, v int32, dw int64) {
	lo, hi := g.Xadj[u], g.Xadj[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if g.Adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= g.Xadj[u+1] || g.Adj[lo] != v {
		panic(fmt.Sprintf("pared: weight delta for (%d,%d) but the coarse mesh has no such adjacency", u, v))
	}
	g.EW[lo] += dw
}

// ownerDeltaHeader is the number of int32 words before the (index, owner)
// pairs in the P3 owner-delta payload: two int64 cut values split hi/lo.
const ownerDeltaHeader = 4

// packOwnerDelta encodes the repartitioning outcome as the cut values plus
// only the owner entries that changed; every rank replicates the old owner
// map, so that is all a broadcast needs to carry.
func packOwnerDelta(cutBefore, cutAfter int64, old, newOwner []int32) []int32 {
	out := make([]int32, ownerDeltaHeader, ownerDeltaHeader+16)
	out[0], out[1] = int32(cutBefore>>32), int32(cutBefore)
	out[2], out[3] = int32(cutAfter>>32), int32(cutAfter)
	for i := range newOwner {
		if newOwner[i] != old[i] {
			out = append(out, int32(i), newOwner[i])
		}
	}
	return out
}

// unpackOwnerDelta reconstructs the new owner map (a fresh slice) and cut
// values from a packOwnerDelta payload and the local copy of the old map.
func unpackOwnerDelta(old []int32, payload []int32) (newOwner []int32, cutBefore, cutAfter int64) {
	cutBefore = int64(payload[0])<<32 | int64(uint32(payload[1]))
	cutAfter = int64(payload[2])<<32 | int64(uint32(payload[3]))
	newOwner = append([]int32(nil), old...)
	for i := ownerDeltaHeader; i < len(payload); i += 2 {
		newOwner[payload[i]] = payload[i+1]
	}
	return newOwner, cutBefore, cutAfter
}

// assertPatchedG cross-checks, under paredassert, that the coordinator's
// patched graph is byte-identical to the graph built from scratch out of full
// weight reports — the correctness contract of the incremental pipeline. The
// extra gather runs on every rank (check.Enabled is a build-wide constant, so
// the collective order stays consistent).
func (e *Engine) assertPatchedG(rep weightReport) {
	if !check.Enabled {
		return
	}
	full := make([]int64, 0, 2+2*len(rep.Roots)+3*len(rep.EdgeR))
	full = append(full, int64(len(rep.Roots)), int64(len(rep.EdgeR)))
	for i, r := range rep.Roots {
		full = append(full, int64(r), rep.VW[i])
	}
	for i := range rep.EdgeR {
		full = append(full, int64(rep.EdgeR[i]), int64(rep.EdgeS[i]), rep.EdgeW[i])
	}
	reports := e.Comm.GatherInt64(0, full)
	if e.Comm.Rank() != 0 {
		return
	}
	ref := buildG(e.Coarse.NumElems(), reports)
	g := e.gCache
	check.Assertf(len(ref.Xadj) == len(g.Xadj) && len(ref.Adj) == len(g.Adj),
		"pared: patched G shape differs from scratch build (%d/%d vs %d/%d)",
		len(g.Xadj), len(g.Adj), len(ref.Xadj), len(ref.Adj))
	for i := range ref.Xadj {
		check.Assertf(g.Xadj[i] == ref.Xadj[i], "pared: patched G Xadj[%d] = %d, scratch %d", i, g.Xadj[i], ref.Xadj[i])
	}
	for i := range ref.Adj {
		check.Assertf(g.Adj[i] == ref.Adj[i], "pared: patched G Adj[%d] = %d, scratch %d", i, g.Adj[i], ref.Adj[i])
		check.Assertf(g.EW[i] == ref.EW[i], "pared: patched G EW[%d] = %d, scratch %d", i, g.EW[i], ref.EW[i])
	}
	for i := range ref.VW {
		check.Assertf(g.VW[i] == ref.VW[i], "pared: patched G VW[%d] = %d, scratch %d", i, g.VW[i], ref.VW[i])
	}
}

// migrate sends trees to their new owners and splices in received ones,
// taking the departing leaves out of the refiner's edge incidence and
// entering the arriving ones: a rank pays for the trees that moved, not for
// the mesh it kept. Payloads travel as one flat wire buffer per destination
// (forest.EncodePayloads), so a migration lane costs one unboxed buffer
// instead of a pointer forest, and empty lanes send nothing.
func (e *Engine) migrate(newOwner []int32) (trees, elems int64) {
	me := int32(e.Comm.Rank())
	outgoing := make([][]*forest.TreePayload, e.Comm.Size())
	for _, r := range e.F.Roots() {
		if newOwner[r] != me {
			p := e.F.ExtractTree(r)
			outgoing[newOwner[r]] = append(outgoing[newOwner[r]], p)
			e.R.RemoveTree(r)
			e.F.RemoveTree(r)
			trees++
			elems += int64(p.NumLeaves())
		}
	}
	send := make([][]byte, e.Comm.Size())
	for i := range send {
		if i != e.Comm.Rank() {
			send[i] = forest.EncodePayloads(outgoing[i])
		}
	}
	recv := e.Comm.AlltoallBytes(send)
	received := 0
	for from, buf := range recv {
		if from == e.Comm.Rank() {
			continue
		}
		ps, err := forest.DecodePayloads(buf)
		if err != nil {
			panic(fmt.Sprintf("pared: rank %d migration payload from %d: %v", e.Comm.Rank(), from, err))
		}
		for _, p := range ps {
			e.F.InsertTree(p)
			e.R.InsertTree(p.Root)
			received++
		}
	}
	if trees == 0 && received == 0 {
		// This rank's forest is untouched, and so are the refiner and the
		// shared-vertex set. Skipping the rest is decided on local knowledge
		// only (what we sent plus what arrived), so no extra collective and no
		// symmetry requirement — a no-op epoch costs just the (empty) exchange
		// above.
		return 0, 0
	}
	e.R.CompactVertices() // reclaim orphans left by departed trees
	clear(e.pending)
	e.rebuildShared()
	if check.Enabled {
		// The spliced incidence must be what a rebuild from the leaves gives.
		err := e.R.CheckInvariants()
		check.Assertf(err == nil, "pared: rank %d refiner after migration: %v", e.Comm.Rank(), err)
	}
	return trees, elems
}

// GatherForest reconstructs the full forest on the given root rank (nil on
// other ranks) — a verification utility for tests and the harness. The trees
// travel in the migration wire format, on the root's lane of one all-to-all.
func (e *Engine) GatherForest(root int) *forest.Forest {
	var payloads []*forest.TreePayload
	for _, r := range e.F.Roots() {
		payloads = append(payloads, e.F.ExtractTree(r))
	}
	send := make([][]byte, e.Comm.Size())
	send[root] = forest.EncodePayloads(payloads)
	recv := e.Comm.AlltoallBytes(send)
	if e.Comm.Rank() != root {
		return nil
	}
	g := forest.New(e.F.Dim)
	for from, buf := range recv {
		ps, err := forest.DecodePayloads(buf)
		if err != nil {
			panic(fmt.Sprintf("pared: rank %d gathering the forest, payload from %d: %v", root, from, err))
		}
		for _, p := range ps {
			g.InsertTree(p)
		}
	}
	return g
}

// CheckConsistency verifies cross-rank invariants (every tree owned exactly
// once, owner map agreement) and local refiner invariants. Intended for tests.
// Every rank returns the same verdict: the fault of the lowest rank that has
// one, else the first tree not held exactly once.
func (e *Engine) CheckConsistency() error {
	// A local fault must not short-circuit past the collectives below: a rank
	// returning early while the others enter them would deadlock. It travels
	// as text to every rank instead, and all ranks read the same lists.
	local := ""
	if err := e.R.CheckInvariants(); err != nil {
		local = err.Error()
	}
	me := int32(e.Comm.Rank())
	if local == "" {
		for _, r := range e.F.Roots() {
			if e.Owner[r] != me {
				local = fmt.Sprintf("rank %d holds tree %d owned by %d", me, r, e.Owner[r])
				break
			}
		}
	}
	held := e.Comm.AllGatherInt32(e.F.Roots())
	text := []byte(local)
	send := make([][]byte, e.Comm.Size())
	for i := range send {
		send[i] = text
	}
	for _, fault := range e.Comm.AlltoallBytes(send) {
		if len(fault) != 0 {
			return fmt.Errorf("pared: %s", fault)
		}
	}
	count := make([]int, e.Coarse.NumElems())
	for _, roots := range held {
		for _, r := range roots {
			count[r]++
		}
	}
	for i, n := range count {
		if n != 1 {
			return fmt.Errorf("pared: tree %d held by %d ranks", i, n)
		}
	}
	return nil
}
