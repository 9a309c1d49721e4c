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
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"pared/internal/check"
	"pared/internal/core"
	"pared/internal/forest"
	"pared/internal/graph"
	"pared/internal/index"
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
	// DistRefine distributes the P3 refinement sweep across all ranks
	// (core.Config.DistRefine over this engine's communicator): instead of
	// rank 0 repartitioning alone while the others idle, every rank writes a
	// replicated coarse graph from all-gathered weight records and enters
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
		var pnr core.Config
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

// coarseTopo is the interface structure of the replicated coarse mesh: which
// tree, if any, lies across each facet of each tree, and which trees meet at
// each coarse vertex. Adaptation and migration change neither; with the
// replicated owner map it answers "what do I share, and with whom" for every
// leaf facet and vertex forest.VisitRootBoundary finds on a tree's boundary,
// with no communication.
type coarseTopo struct {
	elems []mesh.Element // the coarse elements
	nv    int            // vertices, and facets, per element
	// vertElems[vertXadj[v]:vertXadj[v+1]] lists the coarse elements that
	// contain coarse vertex v, ascending.
	vertXadj  []int32
	vertElems []int32
	// across and has back acrossOf. A row is derived when first asked for: a
	// rank asks about the trees it holds and their neighbours, only a holder
	// of G about all of them, and deriving every row in New cost growth3d_sfc
	// 82 % of its setup_s.
	across [][4]int32
	has    []uint8 // scratch, all zero between calls
}

// acrossUnknown in across[r][0] marks a row not derived yet.
const acrossUnknown = -2

func newCoarseTopo(m *mesh.Mesh) coarseTopo {
	t := coarseTopo{
		elems:    m.Elems,
		nv:       m.FacetsPerElem(),
		vertXadj: make([]int32, m.NumVerts()+1),
		across:   make([][4]int32, m.NumElems()),
		has:      make([]uint8, m.NumElems()),
	}
	for r, el := range m.Elems {
		t.across[r][0] = acrossUnknown
		for _, v := range el.V[:t.nv] {
			t.vertXadj[v+1]++
		}
	}
	for v := 0; v < m.NumVerts(); v++ {
		t.vertXadj[v+1] += t.vertXadj[v]
	}
	t.vertElems = make([]int32, t.vertXadj[m.NumVerts()])
	fill := slices.Clone(t.vertXadj[:m.NumVerts()])
	for r, el := range m.Elems {
		for _, v := range el.V[:t.nv] {
			t.vertElems[fill[v]] = int32(r)
			fill[v]++
		}
	}
	return t
}

// elemsAt returns the coarse elements containing coarse vertex v.
func (t *coarseTopo) elemsAt(v int32) []int32 {
	return t.vertElems[t.vertXadj[v]:t.vertXadj[v+1]]
}

// acrossOf returns, for each root facet j of tree r (the facet opposite root
// vertex j), the tree across it, or -1 where the facet lies on ∂Ω.
func (t *coarseTopo) acrossOf(r int32) [4]int32 {
	row := &t.across[r]
	if row[0] != acrossUnknown {
		return *row
	}
	// The tree across a facet has all of r's vertices but one, and the facet
	// is the one opposite that vertex: count, for the elements around r's
	// vertices, how many of those vertices each has.
	*row = [4]int32{-1, -1, -1, -1}
	verts := t.elems[r].V[:t.nv]
	for _, v := range verts {
		for _, s := range t.elemsAt(v) {
			t.has[s]++
		}
	}
	for _, v := range verts {
		for _, s := range t.elemsAt(v) {
			if int(t.has[s]) == t.nv-1 {
				for j, w := range verts {
					if !slices.Contains(t.elems[s].V[:], w) {
						row[j] = s
					}
				}
			}
			t.has[s] = 0 // counted once; later visits of s fall through
		}
	}
	return *row
}

// coarseDual is G's CSR with its slot table: slot[r][j] is the index in Adj
// and EW of the edge r → acrossOf(r)[j], or -1 where facet j lies on ∂Ω.
// writeRecords keeps G's cut and its inter-group part in cut and inter, and
// the trees it wrote in written; planGraph moves the cuts to the new owners.
type coarseDual struct {
	*graph.Graph
	slot       [][4]int32
	nv         int
	cut, inter int64
	written    []int32
}

// dual returns the unit-weight dual of the coarse mesh from the acrossOf rows:
// r's CSR row is its row of trees across, ascending, so Xadj and Adj are
// byte-identical to graph.FromDual's, and CSR order is what KL breaks ties by.
func (t *coarseTopo) dual() *coarseDual {
	n := len(t.elems)
	g := &graph.Graph{Xadj: make([]int32, n+1), Adj: make([]int32, 0, n*t.nv), VW: make([]int64, n), EW: make([]int64, 0, n*t.nv)}
	d := &coarseDual{Graph: g, slot: make([][4]int32, n), nv: t.nv}
	for r := range n {
		row := t.acrossOf(int32(r))
		d.slot[r] = [4]int32{-1, -1, -1, -1}
		for j, s := range row[:t.nv] {
			if s < 0 {
				continue
			}
			d.slot[r][j], d.Adj, d.EW = d.Xadj[r], append(d.Adj, s), append(d.EW, 1)
			for _, o := range row[:t.nv] { // s's place in the ascending row
				if o >= 0 && o < s {
					d.slot[r][j]++
				}
			}
		}
		d.Xadj[r+1], d.VW[r] = int32(len(d.Adj)), 1
		slices.Sort(d.Adj[d.Xadj[r]:])
	}
	return d
}

// facetOn returns the root facets (bit j = the facet opposite root vertex j)
// the leaf facet opposite vertex skip lies on, given the masks of the leaf's
// nv vertices. At most one bit is set: the facet's vertices are affinely
// independent, so they fit in no intersection of two root facets.
func facetOn(on [4]uint8, nv, skip int) uint8 {
	m := uint8(0xf)
	for k := 0; k < nv; k++ {
		if k != skip {
			m &= on[k]
		}
	}
	return m
}

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
	// topo is the static interface structure of Coarse.
	topo coarseTopo
	// shared is the conservative set of vertex IDs on (or ever on) the shard
	// boundary; splits of edges with both endpoints here are exchanged. It
	// holds the vertices of the leaf facets that lie on a root facet whose far
	// side this rank does not hold — a remote tree or ∂Ω alike (rebuildShared)
	// — plus the midpoints of shared edges split since. It is keyed by
	// VertexID; the values are unused.
	shared index.Map
	// pending holds remote splits not yet applicable locally, sorted and
	// without repeats after each Adapt round.
	pending []refine.EdgeSplit
	// received is Adapt's scratch for one peer's decoded split report.
	received []refine.EdgeSplit
	// arrival is the payload every tree migrate or GatherForest receives is
	// decoded into (forest.DecodeEach).
	arrival forest.TreePayload

	// gCache is this rank's copy of the coarse dual graph G, on the ranks the
	// strategy keeps one: rank 0 under the coordinator pipeline, every rank
	// under replicated and hier. Its topology is built once from topo, and its
	// weights and cut are kept between decisions: each overwrites only the
	// trees reported (writeRecords), so the copies stay byte-identical.
	gCache *coarseDual
	// gKept is false until the first graph decision and after each SetConfig
	// (new holders may have no G, an sfc spell leaves it stale): that decision
	// reports and writes every tree. It is the same on every rank.
	gKept bool
	// leaves is the global leaf count of the last imbalance probe.
	leaves int64

	// sfc caches the curve order and scratch of the ModeSFC pipeline; built
	// lazily on the first SFC rebalance (see ensureSFC).
	sfc *sfcState
	// hier caches the sub-communicators and scratch of the ModeHier pipeline;
	// built lazily on the first hierarchical rebalance (see ensureHier).
	hier *hierState

	// CheapSkips counts Rebalance(force=false) calls that returned after the
	// single fused imbalance probe, before any weight work (see Rebalance).
	CheapSkips int64
	// RecordsSent counts the weight records this rank sent in P2, and
	// RecordsWritten those written into its copy of G.
	RecordsSent, RecordsWritten int64
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
// element i; the rank keeps only its own trees. An owner map that is not one
// rank per coarse element, or that names a rank outside the communicator, is
// returned as an error, the same on every rank given the same map.
func New(c *par.Comm, coarseMesh *mesh.Mesh, owner []int32) (*Engine, error) {
	if len(owner) != coarseMesh.NumElems() {
		return nil, fmt.Errorf("pared: owner map has %d entries for %d coarse elements", len(owner), coarseMesh.NumElems())
	}
	for i, r := range owner { // a tree no rank owns would be a hole in the mesh
		if r < 0 || int(r) >= c.Size() {
			return nil, fmt.Errorf("pared: owner[%d] = %d, outside [0, %d)", i, r, c.Size())
		}
	}
	e := &Engine{
		Comm:   c,
		Coarse: coarseMesh,
		Owner:  append([]int32(nil), owner...),
		F:      forest.New(coarseMesh.Dim),
		topo:   newCoarseTopo(coarseMesh),
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
	return e, nil
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
	e.cfg, e.gKept = cfg, false
	return nil
}

// Bootstrap is BootstrapWith under the default configuration.
func Bootstrap(c *par.Comm, coarseMesh *mesh.Mesh) *Engine {
	return BootstrapWith(c, coarseMesh, Config{})
}

// rebuildShared recomputes the conservative shard-boundary vertex set: the
// vertices of the leaf facets on root facets whose far side this rank does not
// hold. "Holds" is read off the forest, not Owner — migrate calls this before
// Rebalance installs the new owner map.
func (e *Engine) rebuildShared() {
	e.shared.Clear()
	for _, r := range e.F.Roots() {
		var open uint8
		across := e.topo.acrossOf(r)
		for j, s := range across[:e.topo.nv] {
			if s < 0 || e.F.Root(s) == forest.NoNode {
				open |= 1 << j
			}
		}
		if open == 0 {
			continue // every neighbour is held: the tree is interior to the shard
		}
		e.F.VisitRootBoundary(r, func(leaf forest.NodeID, on [4]uint8) {
			n := e.F.Node(leaf)
			nv := n.Nv()
			for skip := 0; skip < nv; skip++ {
				if facetOn(on, nv, skip)&open == 0 {
					continue
				}
				for k, v := range n.Verts[:nv] {
					if k != skip {
						e.share(e.F.VIDs[v])
					}
				}
			}
		})
	}
}

// share adds vertex id to the shared set.
func (e *Engine) share(id forest.VertexID) { e.shared.FindOrPut(uint64(id), 0) }

// isShared reports whether vertex id is in the shared set.
func (e *Engine) isShared(id forest.VertexID) bool {
	_, ok := e.shared.Find(uint64(id))
	return ok
}

// AdaptStats reports what a distributed adaptation did (per rank, with
// global fields identical on every rank).
type AdaptStats struct {
	// Rounds is the number of exchange rounds until global quiescence.
	Rounds int
	// LocalRefined and LocalCoarsened count this rank's operations.
	LocalRefined, LocalCoarsened int
	// SweptLeaves is the number of leaves this rank's target sweep examined
	// (refine.Refiner.MarkTargets): every leaf, or in a repeated pass only
	// those born since the last one.
	SweptLeaves int
	// GlobalLeaves is the total leaf count after adaptation.
	GlobalLeaves int64
}

// Adapt performs distributed conformal adaptation (phase P0): leaves with
// indicator above refineTol are refined, with split propagation across rank
// boundaries; if coarsenTol > 0, leaves below it are conformally coarsened.
// A sibling group whose parent midpoint is in shared is never coarsened:
// remote leaf usage of an interface midpoint cannot be checked locally. But
// shared also holds every vertex on the domain boundary ∂Ω, so a group whose
// parent midpoint lies on ∂Ω is kept too, at any rank count including 1,
// and the mesh stays finer along ∂Ω than serial refine.AdaptOnce leaves it
// (ROADMAP item 3).
// est is evaluated through the refiner's memo (refine.Refiner.SetEstimator):
// at most once per node per call, and once per node across calls while the
// same comparable estimator is passed and the node keeps its slot. A pass
// that repeats the last one's estimator and tolerances costs what changed
// since: it evaluates only the nodes refinement created, sweeps only the
// leaves born (refine.Refiner.MarkTargets) and coarsens only if a new
// candidate appeared (refine.Refiner.CoarsenBelow). A migration that touches
// the rank ends both shortcuts.
// The vertex slots coarsening leaves unused are free again when Adapt
// returns (see forest.Forest), on every rank, whether it migrates next or
// not.
func (e *Engine) Adapt(est refine.Estimator, refineTol, coarsenTol float64, maxLevel int32) AdaptStats {
	var st AdaptStats
	_, st.SweptLeaves = e.R.MarkTargets(est, refineTol, maxLevel)
	for {
		st.Rounds++
		st.LocalRefined += e.R.Closure()
		// Collect and filter this round's splits: only shard-boundary edges
		// concern other ranks. Midpoints of shared edges become shared. The
		// wire form is two words per split, (A, B).
		var out []int64
		for _, s := range e.R.TakeNewSplits() {
			if e.isShared(s.A) && e.isShared(s.B) {
				out = append(out, int64(s.A), int64(s.B))
				e.share(forest.MidID(s.A, s.B))
			}
		}
		// Exchange with every rank (p is small; neighbor filtering would cut
		// traffic but not change results).
		e.parkSplits(e.Comm.AllGatherInt64(out))
		// Apply pending remote splits in sorted order: MarkSplitByID mutates
		// the refiner, so the order of the peers' reports would otherwise
		// fix the refinement history (and thus vertex numbering). A split
		// applied, or split here meanwhile, leaves pending.
		slices.SortFunc(e.pending, refine.EdgeSplit.Compare)
		pend := slices.Compact(e.pending)
		e.pending = pend[:0]
		applied := 0
		for _, s := range pend {
			if e.R.MarkSplitByID(s) {
				applied++
				e.share(forest.MidID(s.A, s.B))
			} else if !e.R.IsSplit(s) {
				e.pending = append(e.pending, s)
			}
		}
		changed := int64(len(out)/2 + applied)
		if e.Comm.AllReduceSumInt64(changed) == 0 {
			break
		}
	}
	if coarsenTol > 0 {
		// Interface or ∂Ω midpoint: shared cannot tell them apart. shared
		// only grows until a migration rebuilds it, as CoarsenBelow requires.
		st.LocalCoarsened = e.R.CoarsenBelow(coarsenTol, func(p *forest.Node) bool {
			return e.isShared(e.F.VIDs[p.MidV])
		})
	}
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

// parkSplits adds to pending every split the peers' reports name that is not
// split here yet. A malformed report panics, naming its sender, the way
// migrate reports a bad payload.
func (e *Engine) parkSplits(reports [][]int64) {
	for from, words := range reports {
		if from == e.Comm.Rank() {
			continue
		}
		splits, err := decodeSplits(e.received[:0], from, words)
		if err != nil {
			panic(fmt.Sprintf("pared: rank %d: %v", e.Comm.Rank(), err))
		}
		for _, s := range splits {
			if !e.R.IsSplit(s) {
				e.pending = append(e.pending, s)
			}
		}
		e.received = splits
	}
}

// decodeSplits appends to dst the splits of a split report received from rank
// from: (A, B) word pairs, each a canonical edge (A < B) as the refiner's
// TakeNewSplits gives it. A report that is not whole pairs, or holds a pair
// that is not canonical, is an error naming the sender: the refiner names no
// edge by such a pair, so it would wait in pending forever.
func decodeSplits(dst []refine.EdgeSplit, from int, words []int64) ([]refine.EdgeSplit, error) {
	if len(words)%2 != 0 {
		return dst, fmt.Errorf("split report from rank %d has %d words, not (A, B) pairs", from, len(words))
	}
	for i := 0; i < len(words); i += 2 {
		s := refine.EdgeSplit{A: forest.VertexID(words[i]), B: forest.VertexID(words[i+1])}
		if s.A >= s.B {
			return dst, fmt.Errorf("split report from rank %d: pair %d is (%#x, %#x), not A < B", from, i/2, uint64(s.A), uint64(s.B))
		}
		dst = append(dst, s)
	}
	return dst, nil
}

// Imbalance returns the global leaf-count imbalance max/avg − 1, computed
// from one fused (max, sum) reduction, whose sum it keeps. Every rank derives
// the same float64 from the same reduced integers, so decisions taken on the
// result need no further collective agreement.
func (e *Engine) Imbalance() float64 {
	maxL, total := e.Comm.AllReduceMaxSum(int64(e.F.NumLeaves()))
	e.leaves = total
	avg := float64(total) / float64(e.Comm.Size())
	if avg == 0 {
		return 0
	}
	return float64(maxL)/avg - 1
}

// RebalanceStats reports a repartitioning step (identical on all ranks).
type RebalanceStats struct {
	// Ran is false if imbalance was below the trigger and force was false.
	Ran bool
	// MovedTrees and MovedElements count migrated trees and their leaves.
	MovedTrees, MovedElements int64
	// CutBefore and CutAfter are coarse-graph cuts in the unit of the strategy
	// that ran: leaf pairs across the cut (G's edge weights), but under ModeSFC
	// coarse facets (unit weights). The two do not compare.
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

	// exchange takes this rank's weight records to the ranks that hold a copy
	// of G and returns, there, every rank's records indexed by rank; nil on a
	// rank that holds none.
	exchange func(e *Engine, records []int64) [][]int64
	// decide computes the new owners from the freshly written G on the ranks
	// that hold it — collectively when that is all of them.
	decide func(e *Engine, g *coarseDual) []int32
	// publish, if set, takes rank 0's decision and cuts to the other ranks.
	publish func(e *Engine, newOwner []int32, st *RebalanceStats) []int32
	// twoLevel splits the cut at node-group boundaries (InterCut, IntraCut).
	twoLevel bool
}

// The strategy table. coordinator is the paper's pipeline: G lives on rank 0.
// replicated is Config.DistRefine: every rank holds G and the same
// Repartition call is collective (withDefaults wired the communicator into
// it), so the owner map materializes everywhere with nothing to publish.
// hier is ModeHier (hier.go), sfc is ModeSFC (sfc.go).
var (
	coordinatorStrategy = strategy{name: "coordinator", plan: (*Engine).planGraph,
		exchange: func(e *Engine, records []int64) [][]int64 { return e.Comm.GatherInt64(0, records) },
		decide:   repartitionG, publish: bcastOwnerDelta}
	replicatedStrategy = strategy{name: "replicated", plan: (*Engine).planGraph,
		exchange: func(e *Engine, records []int64) [][]int64 { return e.Comm.AllGatherInt64(records) },
		decide:   repartitionG}
	hierStrategy = strategy{name: "hier", plan: (*Engine).planGraph,
		exchange: func(e *Engine, records []int64) [][]int64 { return e.ensureHier().exchangeRecords(records) },
		decide:   hierDecide, twoLevel: true}
	sfcStrategy = strategy{name: "sfc", plan: (*Engine).planSFC}

	// modeStrategies is the strategy of each Mode; DistRefine replaces
	// ModePNR's by replicatedStrategy (see withDefaults).
	modeStrategies = [...]*strategy{ModePNR: &coordinatorStrategy, ModeSFC: &sfcStrategy, ModeHier: &hierStrategy}
)

// planGraph is P1–P3 of every strategy that repartitions G. P1 is local, as
// in the paper: each rank derives the weights of its own trees from its own
// leaves (weightRecords), of those bisected or un-bisected since the last
// decision, or of all when !gKept. P2 ships them; the holders of G keep it
// and overwrite only the weights reported (writeRecords). The cut before is
// the kept cut plus the changes written, the cut after is it plus cutChange
// over the trees the decision moved: a decision costs what adapted and moved.
func (e *Engine) planGraph(st *RebalanceStats) (newOwner []int32, d1, d2, d3 time.Duration) {
	s, full := e.cfg.strategy, !e.gKept

	// --- P1: local weight computation.
	var records []int64
	d1 = timed(func() {
		records = e.weightRecords(full)
		e.F.ClearChanged()
	})
	n := len(records) / (2 + e.topo.nv)
	e.RecordsSent += int64(n)
	e.trace("P1 weights: %d tree records in %v", n, d1)

	// --- P2: the records reach the ranks that hold G.
	var all [][]int64
	d2 = timed(func() { all = s.exchange(e, records) })
	e.trace("P2 %s exchange: %d record words in %v", s.name, len(records), d2)

	// --- P3: write G, decide, and make the decision known on every rank.
	d3 = timed(func() {
		if all != nil {
			cores := int32(1)
			if s.twoLevel {
				cores = int32(e.hier.cores) // the grouping the decision used (exchange built e.hier)
			}
			g := e.coordinatorGraph(all, cores, full)
			newOwner = s.decide(e, g)
			cut, inter := g.cut, g.inter
			dCut, dInter := cutChange(g.Graph, e.Owner, newOwner, cores)
			g.cut, g.inter = cut+dCut, inter+dInter // kept: the cut under the new owners
			st.CutBefore, st.CutAfter = cut, g.cut
			if s.twoLevel {
				st.InterCut, st.IntraCut = g.inter, g.cut-g.inter
			}
			if check.Enabled {
				b, a := partition.EdgeCut(g.Graph, e.Owner), partition.EdgeCut(g.Graph, newOwner)
				ib, _ := partition.TwoLevelCut(g.Graph, e.Owner, cores)
				ia, _ := partition.TwoLevelCut(g.Graph, newOwner, cores)
				check.Assertf(st.CutBefore == b && st.CutAfter == a && inter == ib && inter+dInter == ia,
					"pared: %s cuts %d -> %d (inter %d -> %d), full recount %d -> %d (inter %d -> %d)",
					s.name, st.CutBefore, st.CutAfter, inter, inter+dInter, b, a, ib, ia)
			}
		}
		if s.publish != nil {
			newOwner = s.publish(e, newOwner, st)
		}
	})
	e.gKept = true
	return newOwner, d1, d2, d3
}

// repartitionG is the decide step of the two flat strategies.
func repartitionG(e *Engine, g *coarseDual) []int32 {
	return e.cfg.Repartition(g.Graph, e.Owner, e.Comm.Size())
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
		var err error
		newOwner, st.CutBefore, st.CutAfter, err = unpackOwnerDelta(e.Owner, payload, e.Comm.Size())
		if err != nil {
			panic(fmt.Sprintf("pared: rank %d: %v", e.Comm.Rank(), err))
		}
	}
	e.trace("P3 owner delta: %d moved entries", (len(payload)-ownerDeltaHeader)/2)
	return newOwner
}

// weightRecords is P1: this rank's contribution to G's weights, one
// fixed-shape record per held tree in ascending root order — every tree if all
// is set, else only those forest.Changed reports —
//
//	[root, leafCount, w_0 … w_dim]
//
// where w_j counts the tree's leaf facets on root facet j — the weight of the
// G edge to the tree across that facet (by conformity the far side counts the
// same), ignored by the receiver where the facet lies on ∂Ω. Nothing here
// looks past the rank's own trees, and nothing is changed: the buffer is fresh
// and the changed bits are the caller's to clear.
func (e *Engine) weightRecords(all bool) []int64 {
	roots := e.F.Roots()
	if !all {
		roots = slices.DeleteFunc(roots, func(r int32) bool { return !e.F.Changed(r) })
	}
	stride := 2 + e.topo.nv
	out := make([]int64, 0, stride*len(roots))
	var w []int64 // the facet counts of the record being filled
	count := func(leaf forest.NodeID, on [4]uint8) {
		nv := e.F.Node(leaf).Nv()
		for skip := 0; skip < nv; skip++ {
			if m := facetOn(on, nv, skip); m != 0 {
				w[bits.TrailingZeros8(m)]++
			}
		}
	}
	for _, r := range roots {
		at := len(out)
		out = out[:at+stride] // all zero: the buffer is fresh
		out[at], out[at+1] = int64(r), int64(e.F.LeafCount(r))
		w = out[at+2:]
		e.F.VisitRootBoundary(r, count)
	}
	return out
}

// writeRecords overwrites the weights of g from every rank's weight records
// (see weightRecords), records[rank] being what rank reported: VW[root] and,
// for each root facet j with a tree across it, the directed CSR slot
// g.slot[root][j]. The reverse slot is written from the far tree's own record,
// so each slot has exactly one writer and nothing is added up: which rank
// reports a tree does not matter, and a migration needs no bookkeeping here.
// It keeps in g.cut G's cut under owner, and in g.inter the part of it between
// groups of cores consecutive ranks: a slot root → u adds the change of its
// weight when u > root and the owners differ, the sum partition.EdgeCut makes.
// A full write zeroes every weight and both cuts first, and must cover every
// tree; otherwise an unreported tree keeps its weights. No index off the wire is used unchecked —
// a report whose length is not a whole number of records, a root outside the
// coarse mesh, a tree the sender does not own under owner, records not in
// ascending root order, or trees a full write leaves out come back as an
// error naming the rank, after writing only G's weights.
func writeRecords(g *coarseDual, owner []int32, cores int32, records [][]int64, full bool) error {
	stride := 2 + g.nv
	if full {
		clear(g.VW)
		clear(g.EW)
		g.cut, g.inter = 0, 0
	}
	g.written = g.written[:0]
	for rank, rec := range records {
		if len(rec)%stride != 0 {
			return fmt.Errorf("pared: weight report of rank %d has %d words, not a multiple of the record length %d", rank, len(rec), stride)
		}
		prev := int64(-1)
		for ; len(rec) > 0; rec = rec[stride:] {
			root := rec[0]
			if root < 0 || root >= int64(len(owner)) {
				return fmt.Errorf("pared: rank %d reports weights of tree %d, outside [0, %d)", rank, root, len(owner))
			}
			if owner[root] != int32(rank) {
				return fmt.Errorf("pared: rank %d reports weights of tree %d, which rank %d owns", rank, root, owner[root])
			}
			if root <= prev {
				return fmt.Errorf("pared: rank %d reports tree %d after tree %d, not in ascending order", rank, root, prev)
			}
			prev = root
			g.written = append(g.written, int32(root))
			g.VW[root] = rec[1]
			for j, k := range g.slot[root][:g.nv] {
				if k < 0 {
					continue
				}
				w, u, o := rec[2+j], g.Adj[k], int32(rank)
				if u > int32(root) && owner[u] != o {
					g.cut += w - g.EW[k]
					if owner[u]/cores != o/cores {
						g.inter += w - g.EW[k]
					}
				}
				g.EW[k] = w
			}
		}
	}
	if full && len(g.written) != len(owner) {
		return fmt.Errorf("pared: weight reports cover %d of %d trees", len(g.written), len(owner))
	}
	return nil
}

// coordinatorGraph returns this rank's copy of the coarse dual graph with
// every rank's records written into it (full: all of G), and with it
// writeRecords' cuts of the current owners — rank 0's copy under the
// coordinator pipeline, every rank's under replicated and hier. The topology and slot table are
// built on first use from topo: G's adjacency is invariant for the run,
// because adaptation only changes how many leaf pairs realize each coarse
// facet, never which coarse elements share one.
func (e *Engine) coordinatorGraph(records [][]int64, cores int32, full bool) *coarseDual {
	if e.gCache == nil {
		e.gCache = e.topo.dual() // its unit weights are overwritten below
	}
	g := e.gCache
	if err := writeRecords(g, e.Owner, cores, records, full); err != nil {
		panic(err.Error())
	}
	e.RecordsWritten += int64(len(g.written))
	if check.Enabled {
		// Each edge was written from both sides of the coarse facet, by the
		// owners of its two trees; conformity says they agree. The kept
		// weights must add up to the leaves the imbalance probe counted.
		err := g.Validate()
		check.Assertf(err == nil, "pared: G written from the weight records: %v", err)
		check.Assertf(g.TotalVW() == e.leaves, "pared: ΣVW = %d, the imbalance probe counted %d leaves", g.TotalVW(), e.leaves)
	}
	return g
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
// values from a packOwnerDelta payload and the local copy of the old map, for
// p ranks. A payload that is not a header plus whole pairs, an index outside
// the map or an owner outside [0, p) is an error: nothing off the wire
// indexes unchecked.
func unpackOwnerDelta(old []int32, payload []int32, p int) (newOwner []int32, cutBefore, cutAfter int64, err error) {
	if len(payload) < ownerDeltaHeader || (len(payload)-ownerDeltaHeader)%2 != 0 {
		return nil, 0, 0, fmt.Errorf("pared: owner delta of %d words is not a %d-word header plus (index, owner) pairs", len(payload), ownerDeltaHeader)
	}
	cutBefore = int64(payload[0])<<32 | int64(uint32(payload[1]))
	cutAfter = int64(payload[2])<<32 | int64(uint32(payload[3]))
	newOwner = append([]int32(nil), old...)
	for i := ownerDeltaHeader; i < len(payload); i += 2 {
		at, owner := payload[i], payload[i+1]
		if at < 0 || int(at) >= len(old) || owner < 0 || int(owner) >= p {
			return nil, 0, 0, fmt.Errorf("pared: owner delta moves tree %d to rank %d, with %d trees and %d ranks", at, owner, len(old), p)
		}
		newOwner[at] = owner
	}
	return newOwner, cutBefore, cutAfter, nil
}

// migrate sends trees to their new owners and splices in received ones,
// taking the departing trees out of the refiner's edge records and entering
// the arriving leaves, then settles the refiner (Refiner.Settle): a rank pays
// for the trees that moved, not for the mesh it kept. A departing tree's
// vertex slots are freed with it, unless a tree that stays uses them, and an
// arriving tree may take them at once; no vertex is renumbered. Trees travel
// as one flat wire buffer per destination (packTrees), decoded tree after
// tree into one reused payload (forest.DecodeEach), so a migrated tree costs
// no allocation of its own and empty lanes send nothing. A tree that may not
// arrive (checkArrival) or whose vertex IDs the forest rejects
// (forest.InsertTree) panics, naming its sender, before any of it is spliced.
func (e *Engine) migrate(newOwner []int32) (trees, elems int64) {
	me := int32(e.Comm.Rank())
	send := e.packTrees(func(r int32) int32 { return newOwner[r] }, me, func(r int32) {
		trees++
		elems += int64(e.F.LeafCount(r))
		e.R.RemoveTree(r)
		e.F.RemoveTree(r)
	})
	received := 0
	for from, buf := range e.Comm.AlltoallBytes(send) { // this rank's own lane is nil
		err := forest.DecodeEach(buf, &e.arrival, func(p *forest.TreePayload) error {
			err := checkArrival(e.F, e.Owner, newOwner, int(me), from, p)
			if err == nil {
				err = e.F.InsertTree(p)
			}
			if err == nil {
				e.R.InsertTree(p.Root)
				received++
			}
			return err
		})
		if err != nil {
			panic(fmt.Sprintf("pared: rank %d migration payload from %d: %v", e.Comm.Rank(), from, err))
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
	// RemoveTree and InsertTree dropped the refiner's indicator memo, and with
	// it the shortcuts of a repeated Adapt pass, which rely on the forest and
	// on shared changing only by refinement: rebuildShared may shrink shared.
	e.R.Settle()
	e.pending = e.pending[:0]
	e.rebuildShared()
	if check.Enabled {
		// The spliced incidence must be what a rebuild from the leaves gives.
		err := e.R.CheckInvariants()
		check.Assertf(err == nil, "pared: rank %d refiner after migration: %v", e.Comm.Rank(), err)
	}
	return trees, elems
}

// checkSender vets a tree p that rank from sent to a forest of dimension
// dim, before its root indexes anything: the root must be a tree of the
// coarse mesh, which owner covers, the sender must own it under owner, and
// its simplices must have the receiver's dimension.
func checkSender(owner []int32, dim mesh.Dim, from int, p *forest.TreePayload) error {
	root := p.Root
	if root < 0 || int(root) >= len(owner) {
		return fmt.Errorf("rank %d sent tree %d, outside [0, %d)", from, root, len(owner))
	}
	if owner[root] != int32(from) {
		return fmt.Errorf("rank %d sent tree %d, which rank %d owns", from, root, owner[root])
	}
	if p.Dim() != dim {
		return fmt.Errorf("rank %d sent tree %d of dimension %d into a forest of dimension %d", from, root, p.Dim(), dim)
	}
	return nil
}

// checkArrival vets a tree p that rank from migrated to rank me, before it is
// spliced into f: checkSender under the old owner map, and the new map must
// assign it to me, which must not hold it yet. The dense root index of f
// grows to the largest root spliced in, so this is also what keeps a corrupt
// root from sizing it.
func checkArrival(f *forest.Forest, owner, newOwner []int32, me, from int, p *forest.TreePayload) error {
	if err := checkSender(owner, f.Dim, from, p); err != nil {
		return err
	}
	root := p.Root
	if newOwner[root] != int32(me) {
		return fmt.Errorf("rank %d sent tree %d to rank %d, which the new owner map gives rank %d", from, root, me, newOwner[root])
	}
	if f.Root(root) != forest.NoNode {
		return fmt.Errorf("rank %d sent tree %d, which rank %d already holds", from, root, me)
	}
	return nil
}

// packTrees encodes each held tree r with dest(r) != keep onto lane dest(r),
// in ascending root order, and calls sent(r) after it. Each lane is one
// EncodePayloads batch, allocated once at the sum of its trees'
// forest.TreeWireBound, its count word patched after every tree; a lane with
// no tree is nil.
func (e *Engine) packTrees(dest func(r int32) int32, keep int32, sent func(r int32)) [][]byte {
	roots := e.F.Roots()
	size := make([]int, e.Comm.Size())
	for _, r := range roots {
		if to := dest(r); to != keep {
			size[to] += e.F.TreeWireBound(r)
		}
	}
	lanes := make([][]byte, len(size))
	for to, n := range size {
		if n > 0 {
			lanes[to] = make([]byte, 4, 4+n)
		}
	}
	for _, r := range roots {
		if to := dest(r); to != keep {
			lanes[to] = e.F.AppendTree(lanes[to], r)
			binary.LittleEndian.PutUint32(lanes[to], binary.LittleEndian.Uint32(lanes[to])+1)
			sent(r)
		}
	}
	return lanes
}

// GatherForest reconstructs the full forest on the given root rank (nil on
// other ranks) — a verification utility for tests and the harness. The trees
// travel in the migration wire format, on the root's lane of one all-to-all.
func (e *Engine) GatherForest(root int) *forest.Forest {
	send := e.packTrees(func(int32) int32 { return int32(root) }, -1, func(int32) {})
	recv := e.Comm.AlltoallBytes(send)
	if e.Comm.Rank() != root {
		return nil
	}
	g := forest.New(e.F.Dim)
	for from, buf := range recv {
		err := forest.DecodeEach(buf, &e.arrival, func(p *forest.TreePayload) error {
			err := checkSender(e.Owner, e.F.Dim, from, p)
			if err == nil {
				err = g.InsertTree(p)
			}
			return err
		})
		if err != nil {
			panic(fmt.Sprintf("pared: rank %d gathering the forest, payload from %d: %v", root, from, err))
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
