package pared

// Hierarchical (node × core) repartitioning over sub-communicators, after
// Kong et al.'s two-level partitioning: the flat rank set r ∈ [0, N·C) is
// viewed as N node groups of C cores (node(r) = r/C, core(r) = r%C), and the
// repartition runs in two phases:
//
//	phase A  partition G among the N node groups, with edge weights scaled
//	         by Topology.InterNodePenalty — every edge cut at this level is
//	         an inter-node edge, so the scale makes the cut term of
//	         Equation 1 weigh Penalty× against migration and balance,
//	         which is the cost model of a cluster whose network links are
//	         Penalty× slower than its intra-node memory;
//	phase B  each node group refines its own induced subgraph into C parts
//	         independently, over its node sub-communicator — the groups
//	         proceed concurrently and most collectives shrink to C ranks.
//
// Both phases run the rank-distributed deterministic sweep (core.DistRefine):
// phase A over the world comm, phase B over each node comm. All inputs are
// replicated and deterministic, so the owner map materializes byte-identical
// on every rank with no broadcast of the decision itself — only the phase-B
// results cross node boundaries, once, through the leader comm.
//
// The leaf mesh the engine produces is byte-identical for any GOMAXPROCS and
// any node×core factorization of the same total rank count: adaptation's
// conformal fixed point equals the serial refinement of the same mesh
// regardless of ownership, and each factorization's pipeline is individually
// deterministic. (Owner maps legitimately differ between factorizations —
// the penalty reshapes the objective — which is the point of the knob.)

import (
	"fmt"

	"pared/internal/check"
	"pared/internal/core"
	"pared/internal/graph"
	"pared/internal/par"
)

// Topology describes the two-level rank layout of ModeHier. Nodes ×
// CoresPerNode must equal the communicator size; rank r belongs to node
// r/CoresPerNode. The zero value asks for defaults: the most balanced
// factorization of the rank count and a penalty of 4.
type Topology struct {
	Nodes        int
	CoresPerNode int
	// InterNodePenalty scales G's edge weights in phase A, biasing the
	// node-level objective toward small inter-node cuts (0 = default 4;
	// otherwise at least 1).
	InterNodePenalty float64
}

// Resolve fills the zero fields of the topology for p ranks and fails when
// the result does not factor p or the penalty is negative or, being set,
// below 1: that would price the network under shared memory, and phase A's
// rounding would turn light edges into weight 0, erasing the cut term.
func (t Topology) Resolve(p int) (Topology, error) {
	if t.InterNodePenalty < 0 {
		return t, fmt.Errorf("pared: inter-node penalty %g is negative", t.InterNodePenalty)
	}
	if t.InterNodePenalty > 0 && t.InterNodePenalty < 1 {
		return t, fmt.Errorf("pared: inter-node penalty %g is below 1", t.InterNodePenalty)
	}
	if t.Nodes == 0 && t.CoresPerNode == 0 {
		t.Nodes = balancedNodes(p)
		t.CoresPerNode = p / t.Nodes
	} else if t.Nodes == 0 {
		t.Nodes = p / t.CoresPerNode
	} else if t.CoresPerNode == 0 {
		t.CoresPerNode = p / t.Nodes
	}
	if t.InterNodePenalty <= 0 {
		t.InterNodePenalty = 4
	}
	if t.Nodes < 1 || t.CoresPerNode < 1 || t.Nodes*t.CoresPerNode != p {
		return t, fmt.Errorf("pared: topology %d nodes × %d cores does not factor %d ranks",
			t.Nodes, t.CoresPerNode, p)
	}
	return t, nil
}

// balancedNodes returns the largest divisor of p not exceeding √p — the most
// balanced node×core factorization, preferring more cores per node on ties.
func balancedNodes(p int) int {
	best := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			best = d
		}
	}
	return best
}

// hierState caches the sub-communicators and per-epoch scratch of ModeHier;
// built lazily on the first hierarchical rebalance (see ensureHier).
type hierState struct {
	topo         Topology // the resolved topology it was built for
	nodes, cores int
	penalty      float64
	myNode       int32
	node         *par.Comm // this rank's node group (size cores)
	leaders      *par.Comm // one rank per node, numbered by node id; nil off-leader

	// Phase A: penalized view of the replicated weighted G. Topology arrays
	// are shared with gCache; only the edge weights the last write changed
	// are rescaled per decision.
	ewA    []int64
	gA     *graph.Graph
	oldA   []int32 // current node of each vertex's owner
	assign []int32 // phase A result: node group per vertex

	// Phase B: induced-subgraph scratch (all indices replicated group-wide).
	verts   []int32 // my group's vertices, ascending
	local   []int32 // global vertex -> group-local index, len n
	subXadj []int32
	subAdj  []int32
	subEW   []int64
	subVW   []int64
	subOld  []int32
	mine    []int32 // final owners of my group's vertices, ascending order

	// P2 fan-in/fan-out scratch (see exchangeRecords).
	pack  []int64
	flat  []int64
	views [][]int64
	idx   []int // per-node cursor for the leader's owner reassembly

	// Owner assembly: leaders build the full map, node comms fan it out, and
	// every rank copies into its own double buffer (the broadcast aliases the
	// leader's scratch, which the next epoch overwrites).
	ownerBuf [2][]int32
	epoch    int
}

// ensureHier builds the sub-communicators and phase A scratch on first use and
// after SetConfig changes the topology. Reaching here is collective (Rebalance
// is, and SetConfig is SPMD), so the Splits stay symmetric.
func (e *Engine) ensureHier() *hierState {
	t := e.cfg.Topology
	if e.hier != nil && e.hier.topo == t {
		return e.hier
	}
	h := &hierState{
		topo:    t,
		nodes:   t.Nodes,
		cores:   t.CoresPerNode,
		penalty: t.InterNodePenalty,
		myNode:  int32(e.Comm.Rank() / t.CoresPerNode),
	}
	h.node = e.Comm.Split(int64(h.myNode), 0)
	lcolor := int64(-1)
	if h.node.Rank() == 0 {
		lcolor = 0
	}
	h.leaders = e.Comm.Split(lcolor, int64(h.myNode))
	e.hier = h
	return h
}

// hierDecide is the strategy's P3: the two-level repartition of the
// replicated G, collective on every rank.
func hierDecide(e *Engine, g *coarseDual) []int32 {
	h := e.hier
	var newOwner []int32
	dA := timed(func() { e.hierPhaseA(g) })
	dB := timed(func() { newOwner = e.hierPhaseB(g.Graph) })
	e.Phases.HierA += dA
	e.Phases.HierB += dB
	e.trace("P3 hier: phase A %v (%d node groups, penalty %.1f), phase B %v (group %d: %d verts)",
		dA, h.nodes, h.penalty, dB, h.myNode, len(h.verts))
	return newOwner
}

// exchangeRecords is the strategy's P2: it moves every rank's weight records
// to every rank through the two-level comm tree — each core's records climb to
// its node leader, the N leaders swap combined node payloads, each node comm
// fans the world's records back down — and returns them indexed by world
// rank. Framing: a node pack is
// [C, len_0, …, len_{C-1}, payload_0 ∥ … ∥ payload_{C-1}] with cores in
// node-rank order; the leader all-gather yields the packs in node-id
// order, so their concatenation decodes in ascending world-rank order — the
// indexing of the flat pipeline's AllGatherInt64.
func (h *hierState) exchangeRecords(records []int64) [][]int64 {
	parts := h.node.GatherInt64(0, records)
	var flat []int64
	if h.leaders != nil {
		h.pack = h.pack[:0]
		h.pack = append(h.pack, int64(h.cores))
		for _, p := range parts {
			h.pack = append(h.pack, int64(len(p)))
		}
		for _, p := range parts {
			h.pack = append(h.pack, p...)
		}
		packs := h.leaders.AllGatherInt64(h.pack)
		h.flat = h.flat[:0]
		for _, p := range packs {
			h.flat = append(h.flat, p...)
		}
		flat = h.flat
	}
	flat = h.node.BcastInt64(0, flat)
	if h.views == nil {
		h.views = make([][]int64, h.nodes*h.cores)
	}
	r := 0
	for len(flat) > 0 {
		k := int(flat[0])
		lens := flat[1 : 1+k]
		off := 1 + k
		for i := 0; i < k; i++ {
			n := int(lens[i])
			h.views[r] = flat[off : off+n]
			off += n
			r++
		}
		flat = flat[off:]
	}
	return h.views
}

// hierPhaseA partitions G among the node groups: scale the edge weights of
// the trees just written by the inter-node penalty and run the
// migration-aware repartitioner to N parts, distributed across the whole
// communicator. The result (h.assign, replicated) maps each vertex to its
// node group.
func (e *Engine) hierPhaseA(g *coarseDual) {
	h := e.hier
	n := g.N()
	if h.assign == nil {
		h.assign = make([]int32, n)
		h.oldA = make([]int32, n)
	}
	if h.nodes == 1 {
		for v := range h.assign {
			h.assign[v] = 0
		}
		return
	}
	if h.ewA == nil {
		h.ewA = make([]int64, len(g.EW))
		h.gA = &graph.Graph{Xadj: g.Xadj, Adj: g.Adj, VW: g.VW, EW: h.ewA}
	}
	scale := func(w int64) int64 { return int64(h.penalty*float64(w) + 0.5) }
	for _, r := range g.written { // every tree after a full write, and the first use follows one
		for _, k := range g.slot[r][:g.nv] {
			if k >= 0 {
				h.ewA[k] = scale(g.EW[k])
			}
		}
	}
	if check.Enabled {
		for k, w := range g.EW {
			check.Assertf(h.ewA[k] == scale(w), "pared: phase A weight %d is %d, a full rescale gives %d", k, h.ewA[k], scale(w))
		}
	}
	for v := 0; v < n; v++ {
		h.oldA[v] = e.Owner[v] / int32(h.cores)
	}
	copy(h.assign, core.Repartition(h.gA, h.oldA, h.nodes, core.Config{DistRefine: e.Comm}))
}

// hierPhaseB refines each node group's induced subgraph into C parts over the
// node sub-communicator (groups run concurrently, collectives span C ranks),
// then assembles the global owner map: leaders all-gather the per-group
// results and each node comm fans the full map down.
func (e *Engine) hierPhaseB(g *graph.Graph) []int32 {
	h := e.hier
	n := g.N()
	sub := h.induced(g)
	h.mine = h.mine[:0]
	base := h.myNode * int32(h.cores)
	if h.cores == 1 || sub.N() == 0 {
		// Nothing to refine inside the group (the group membership IS the
		// assignment); the skip is group-uniform, so no collective is missed.
		for range h.verts {
			h.mine = append(h.mine, base)
		}
	} else {
		if cap(h.subOld) < sub.N() {
			h.subOld = make([]int32, sub.N())
		}
		h.subOld = h.subOld[:sub.N()]
		for i, v := range h.verts {
			// Core index of the current owner: vertices staying in their node
			// keep their core, arrivals spread deterministically by the same
			// rule (their old owner's core index on its former node).
			h.subOld[i] = e.Owner[v] % int32(h.cores)
		}
		part := core.Repartition(sub, h.subOld, h.cores, core.Config{DistRefine: h.node})
		for i := range h.verts {
			h.mine = append(h.mine, base+part[i])
		}
	}
	// Exchange across groups: one leader collective of N lanes, one node-comm
	// fan-out — the only traffic that crosses node boundaries in P3.
	buf := h.ownerBuf[h.epoch%2]
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	h.ownerBuf[h.epoch%2] = buf
	h.epoch++
	var full []int32
	if h.leaders != nil {
		groups := h.leaders.AllGatherInt32(h.mine)
		if h.idx == nil {
			h.idx = make([]int, h.nodes)
		}
		for i := range h.idx {
			h.idx[i] = 0
		}
		full = buf // leaders assemble straight into their epoch buffer
		for v := 0; v < n; v++ {
			grp := h.assign[v]
			full[v] = groups[grp][h.idx[grp]]
			h.idx[grp]++
		}
	}
	full = h.node.BcastInt32(0, full)
	if h.leaders == nil {
		// Off-leader ranks copy out of the broadcast alias into their own
		// epoch buffer. The leader must NOT run this copy: full already IS its
		// buffer, and even a self-memmove would write the array while the
		// other cores are still reading it through the alias.
		copy(buf, full)
	}
	return buf
}

// induced extracts the induced subgraph of this rank's node group from the
// replicated G into group-replicated scratch: vertices ascending, adjacency
// rows filtered (and therefore still ascending), weights unpenalized.
func (h *hierState) induced(g *graph.Graph) *graph.Graph {
	n := g.N()
	if h.local == nil {
		h.local = make([]int32, n)
	}
	h.verts = h.verts[:0]
	for v := int32(0); v < int32(n); v++ {
		if h.assign[v] == h.myNode {
			h.local[v] = int32(len(h.verts))
			h.verts = append(h.verts, v)
		} else {
			h.local[v] = -1
		}
	}
	ns := len(h.verts)
	if cap(h.subXadj) < ns+1 {
		h.subXadj = make([]int32, ns+1)
		h.subVW = make([]int64, ns)
	}
	h.subXadj = h.subXadj[:ns+1]
	h.subVW = h.subVW[:ns]
	h.subAdj = h.subAdj[:0]
	h.subEW = h.subEW[:0]
	h.subXadj[0] = 0
	for i, v := range h.verts {
		h.subVW[i] = g.VW[v]
		for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
			if j := h.local[g.Adj[k]]; j >= 0 {
				h.subAdj = append(h.subAdj, j)
				h.subEW = append(h.subEW, g.EW[k])
			}
		}
		h.subXadj[i+1] = int32(len(h.subAdj))
	}
	return &graph.Graph{Xadj: h.subXadj, Adj: h.subAdj, EW: h.subEW, VW: h.subVW}
}
