package core

import (
	"math"

	"pared/internal/check"
	"pared/internal/graph"
)

// klMove records one KL move for prefix rollback.
type klMove struct {
	v    int32
	from int32
}

// klSlot caches the best admissible move of one listed boundary vertex.
type klSlot struct {
	gain float64 // moveGain of v → to; meaningful when to >= 0
	// deps is a set of parts as bits (part & 63). Soft balance: the parts the
	// score reads, v's own and every neighbouring one. Hard balance: the
	// candidate parts that were closed to v when it was scored.
	deps uint64
	v    int32
	to   int32 // -1: no admissible move
}

// klCands is the cold half of a soft-balance slot: v's candidate parts
// j ≠ parts[v] in first-touched order, each with extW[j] − extW[parts[v]],
// so that a move which only changed part weights is reweighed without the
// neighbour walk. n < 0: a candidate or its ext does not fit, or v has more
// than len(part) candidates; the slot is re-walked instead.
type klCands struct {
	part, ext [3]int16
	n         int16
}

func (c *klCands) add(j int32, ext int64) {
	if c.n < 0 {
		return
	}
	if int(c.n) == len(c.part) || j > math.MaxInt16 || ext != int64(int16(ext)) {
		c.n = -1
		return
	}
	c.part[c.n], c.ext[c.n] = int16(j), int16(ext)
	c.n++
}

// klState is a vertex's place in the current pass.
type klState uint8

const (
	klUnlisted klState = iota
	klListed           // has had a slot this pass (a moved vertex keeps this or klDirty)
	klDirty            // listed, and a neighbour has moved since its slot was scored
)

// klScratch holds the work arrays of runKL and forceBalance so the V-cycle
// drivers reuse them across levels and cycles instead of reallocating per
// call. state is the only buffer sized by the graph; slots, cands and moves
// are sized by the boundary. The zero value is ready to use; a nil *klScratch
// means "allocate per call".
type klScratch struct {
	partW   []int64
	extW    []int64 // edge weight from the scored vertex to each part
	state   []klState
	touched []int32
	slots   []klSlot  // the unlocked listed vertices, in no particular order
	cands   []klCands // soft balance: cands[x] belongs to slots[x]
	moves   []klMove
	// onMove, when set (the oracle tests), observes every selected move, the
	// rolled-back tail included.
	onMove func(v, from, to int32, gain float64)
	// dist holds the distributed-refinement buffers (distrefine.go); idle
	// (and never grown) unless Config.DistRefine routes the sweeps there.
	dist distScratch
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growI64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growI32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// moveGain is the amount by which Equation 1 falls when a vertex of weight
// wv, whose data lives on part orig, moves from part i to part j:
//
//	gain(v: i→j) = [w(v→j) − w(v→i)]                      (cut)
//	             + α·wv·([i≠orig] − [j≠orig])             (migration)
//	             + 2β·wv·(W_i − W_j − wv)                  (balance)
//
// ext is the bracket of the cut term, wi and wj the part weights before the
// move. hardBalance drops the balance term: polishKL enforces a limit instead.
// The serial selector and the distributed sweep score through this one
// expression, so their floats agree bit for bit (assert.go keeps its own
// copy, as the brute-force reference). It must stay inlinable: it sits on
// both inner loops.
func moveGain(cfg Config, ext, wv int64, i, j, orig int32, wi, wj int64, hardBalance bool) float64 {
	gc := float64(ext)
	gm := 0.0
	if i == orig {
		gm -= cfg.Alpha * float64(wv)
	}
	if j == orig {
		gm += cfg.Alpha * float64(wv)
	}
	gain := gc + gm
	if !hardBalance {
		gain += 2 * cfg.Beta * float64(wv) * float64(wi-wj-wv)
	}
	return gain
}

// refineKL runs PNR's Kernighan–Lin variant: passes of best-gain boundary
// moves under the 3-term gain (moveGain). Each vertex moves at most once per
// pass; the pass keeps the best prefix of its move sequence (classic KL
// hill-climbing) and ends early after maxNegMoves consecutive non-improving
// moves. The move "with largest gain" (§9) is the argmax over the boundary
// under the tie-break every committed count was recorded with: gain desc,
// vertex asc, first-touched part (klRun.pick).
func refineKL(s *klScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config) {
	runKL(s, g, parts, orig, p, cfg, false)
}

// polishKL runs extra passes with the balance term replaced by a hard
// constraint: only moves keeping every part within (1+ε)·W̄ are admissible,
// and the gain is cut + α·migration. Applied after balance is reached, it
// recovers cut quality that the soft quadratic term would otherwise freeze
// (every move then carries a −2βw² penalty, blocking small cut improvements).
func polishKL(s *klScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config) {
	runKL(s, g, parts, orig, p, cfg, true)
}

// klRun is one runKL call: its inputs, the part weights it maintains and the
// scratch holding the per-vertex move cache.
type klRun struct {
	s           *klScratch
	g           *graph.Graph
	parts, orig []int32
	partW       []int64 // one entry per part
	cfg         Config
	hardBalance bool
	limit       int64 // hardBalance: no move may lift a part above it
}

func partBit(part int32) uint64 { return 1 << (uint32(part) & 63) }

// offer makes j the slot's move if it scores strictly higher: over the
// candidates in first-touched order, the first-touched part wins a tie.
func (sl *klSlot) offer(j int32, gain float64) {
	if sl.to < 0 || gain > sl.gain {
		sl.gain, sl.to = gain, j
	}
}

// score walks the neighbours of slots[x].v in CSR order and stores its best
// admissible move with what the answer depends on: deps, and in soft balance
// the candidate cache cands[x].
func (r *klRun) score(x int) {
	g, parts, partW, extW := r.g, r.parts, r.partW, r.s.extW
	sl := &r.s.slots[x]
	v := sl.v
	touched := r.s.touched[:0]
	i := parts[v]
	for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
		pu := parts[g.Adj[k]]
		if extW[pu] == 0 {
			touched = append(touched, pu)
		}
		extW[pu] += g.EW[k]
	}
	var c *klCands
	sl.to, sl.deps = -1, 0
	if !r.hardBalance {
		c = &r.s.cands[x]
		c.n = 0
		sl.deps = partBit(i)
	}
	wv, extI := g.VW[v], extW[i]
	for _, j := range touched {
		switch {
		case j == i:
		case r.hardBalance && partW[j]+wv > r.limit:
			sl.deps |= partBit(j) // closed to v
		default:
			if c != nil {
				sl.deps |= partBit(j)
				c.add(j, extW[j]-extI)
			}
			sl.offer(j, moveGain(r.cfg, extW[j]-extI, wv, i, j, r.orig[v], partW[i], partW[j], r.hardBalance))
		}
		extW[j] = 0
	}
	r.s.touched = touched
}

// reweigh re-scores the soft-balance slot x from its candidate cache: the
// operands score would hand moveGain, in the same order, minus the walk, so
// the same bits. Only valid while no neighbour of the vertex has moved.
func (r *klRun) reweigh(x int) {
	sl, c := &r.s.slots[x], &r.s.cands[x]
	v := sl.v
	i, wv, o := r.parts[v], r.g.VW[v], r.orig[v]
	wi := r.partW[i]
	sl.to = -1
	for k := int16(0); k < c.n; k++ {
		j := int32(c.part[k])
		sl.offer(j, moveGain(r.cfg, int64(c.ext[k]), wv, i, j, o, wi, r.partW[j], false))
	}
}

// add appends a freshly scored slot for v.
func (r *klRun) add(v int32) {
	s := r.s
	s.slots = append(s.slots, klSlot{v: v})
	if !r.hardBalance {
		s.cands = append(s.cands, klCands{})
	}
	r.score(len(s.slots) - 1)
}

// list starts a pass: every vertex with a neighbour in another part gets a
// freshly scored slot. The boundary is counted before it is filled so that a
// call allocates the slot array once, with room for what the passes list
// later (a move frees one slot and lists at most its unlisted neighbours) and
// for the slightly different boundary of the next runKL on this scratch.
func (r *klRun) list() {
	s, g, parts := r.s, r.g, r.parts
	state := s.state
	count := 0
	for v := range state {
		state[v] = klUnlisted
		for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
			if parts[g.Adj[k]] != parts[v] {
				state[v] = klListed
				count++
				break
			}
		}
	}
	if cap(s.slots) < count {
		s.slots = make([]klSlot, 0, count+count/4+32)
	}
	if !r.hardBalance && cap(s.cands) < cap(s.slots) {
		s.cands = make([]klCands, 0, cap(s.slots))
	}
	s.slots, s.cands = s.slots[:0], s.cands[:0]
	for v, st := range state {
		if st == klListed {
			r.add(int32(v))
		}
	}
}

// pick brings every slot up to date with the pass's previous move, of a
// vertex from part a to part b (a < 0 before the first move), and returns the
// index of the slot holding the best move, or -1. A slot is re-scored only
// where that move can change its answer:
//   - klDirty (a neighbour moved, so its edge weights per part did): walked
//     again. In soft balance such a slot's part set holds a, the part the
//     neighbour left, so it is found among the next case's.
//   - Soft balance, a part set meeting {a, b}: a balance term changed; the
//     slot is reweighed from its candidate cache, or walked if that
//     overflowed. Every other slot would get moveGain's operands unchanged.
//   - Hard balance, its target b now closed to it, or a part of its closed
//     set a and now open to it: walked again. The hard gain reads no part
//     weight, only which candidates are open; closing a candidate that did not
//     win leaves the winner, and a part only opens as the a of a move, so no
//     other slot can change its answer.
//
// The argmax is the boundary scan's: gain desc, then vertex asc.
func (r *klRun) pick(a, b int32) int {
	slots, cands, state, vw := r.s.slots, r.s.cands, r.s.state, r.g.VW
	var stale, closedA uint64
	var roomA, roomB int64 // hard balance: a (b) is open to v iff vw[v] <= roomA (roomB)
	if a >= 0 {
		stale, closedA = partBit(a)|partBit(b), partBit(a)
		roomA, roomB = r.limit-r.partW[a], r.limit-r.partW[b]
	}
	sel := -1
	for x := range slots {
		sl := &slots[x]
		switch v := sl.v; {
		case a < 0: // the pass's first pick: every slot is fresh
		case r.hardBalance:
			if state[v] == klDirty || (sl.to == b && vw[v] > roomB) || (sl.deps&closedA != 0 && vw[v] <= roomA) {
				state[v] = klListed
				r.score(x)
			}
		case sl.deps&stale != 0:
			if state[v] == klDirty || cands[x].n < 0 {
				state[v] = klListed
				r.score(x)
			} else {
				r.reweigh(x)
			}
		}
		// ">= && v<" is the equal-gain tie-break without a float ==: the >
		// clause has already failed here.
		if sl.to >= 0 && (sel < 0 || sl.gain > slots[sel].gain || (sl.gain >= slots[sel].gain && sl.v < slots[sel].v)) {
			sel = x
		}
	}
	if check.Enabled {
		r.assertSelection(sel)
	}
	return sel
}

// move applies the move of slot x and returns it with its source part. The
// moved vertex is locked for the rest of the pass: its slot goes, its state
// stays listed (or dirty) so it is not listed again. Its listed neighbours
// turn dirty; the unlisted ones are listed.
func (r *klRun) move(x int) (sel klSlot, from int32) {
	s, g, parts := r.s, r.g, r.parts
	sel = s.slots[x]
	last := len(s.slots) - 1
	s.slots[x] = s.slots[last]
	s.slots = s.slots[:last]
	if !r.hardBalance {
		s.cands[x] = s.cands[last]
		s.cands = s.cands[:last]
	}
	from = parts[sel.v]
	parts[sel.v] = sel.to
	r.partW[from] -= g.VW[sel.v]
	r.partW[sel.to] += g.VW[sel.v]
	if check.Enabled {
		check.PartitionWeights(g, parts, len(r.partW), r.partW, "core.runKL")
	}
	if s.onMove != nil {
		s.onMove(sel.v, from, sel.to, sel.gain)
	}
	s.moves = append(s.moves, klMove{sel.v, from})
	for k := g.Xadj[sel.v]; k < g.Xadj[sel.v+1]; k++ {
		switch u := g.Adj[k]; s.state[u] {
		case klUnlisted:
			s.state[u] = klListed
			r.add(u)
		case klListed:
			s.state[u] = klDirty
		}
	}
	return sel, from
}

func runKL(s *klScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config, hardBalance bool) {
	n := len(g.VW) // g.N(), phrased as the length fact the index proofs chain from
	if n == 0 || p <= 1 {
		return
	}
	parts = parts[:n] // pin len(parts) = g.N()
	if s == nil {
		s = new(klScratch)
	}
	s.partW = growI64s(s.partW, p)
	partW := s.partW[:p]
	clear(partW)
	for v := 0; v < n; v++ {
		partW[parts[v]] += g.VW[v]
	}
	r := klRun{s: s, g: g, parts: parts, orig: orig, partW: partW, cfg: cfg, hardBalance: hardBalance}
	if hardBalance {
		var total int64
		for _, w := range partW {
			total += w
		}
		r.limit = int64(float64(total) / float64(p) * (1 + eps))
	}
	if cap(s.state) < n {
		s.state = make([]klState, n)
	}
	s.state = s.state[:n]
	s.extW = growI64s(s.extW, p)
	clear(s.extW)

	for pass := 0; pass < klPasses; pass++ {
		r.list()
		s.moves = s.moves[:0]
		cumGain, bestGain := 0.0, 0.0
		bestIdx := -1
		negStreak := 0
		a, b := int32(-1), int32(-1)
		for {
			x := r.pick(a, b)
			if x < 0 {
				break
			}
			sel, from := r.move(x)
			a, b = from, sel.to
			cumGain += sel.gain
			if cumGain > bestGain+1e-9 {
				bestGain = cumGain
				bestIdx = len(s.moves) - 1
				negStreak = 0
			} else {
				negStreak++
				if negStreak > maxNegMoves {
					break
				}
			}
		}
		// Keep the best prefix.
		for i := len(s.moves) - 1; i > bestIdx; i-- {
			m := s.moves[i]
			partW[parts[m.v]] -= g.VW[m.v]
			partW[m.from] += g.VW[m.v]
			parts[m.v] = m.from
		}
		if bestIdx < 0 {
			break
		}
	}
}

// forceBalance is the post-refinement safety net: while some part exceeds
// (1+ε) of the average weight, move the best-gain boundary vertex out of the
// heaviest part into an underweight part. The β-weighted gain already prefers
// such moves, so this loop usually runs zero iterations; it guarantees the
// ε < 0.01 balance the paper reports even on adversarial inputs.
func forceBalance(s *klScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config) {
	n := len(g.VW) // g.N(), phrased as the length fact the index proofs chain from
	if n == 0 || p <= 1 {
		return
	}
	parts = parts[:n] // pin len(parts) = g.N()
	if s == nil {
		s = new(klScratch)
	}
	s.partW = growI64s(s.partW, p)
	partW := s.partW[:p]
	for j := 0; j < p; j++ {
		partW[j] = 0
	}
	for v := 0; v < n; v++ {
		partW[parts[v]] += g.VW[v]
	}
	var total int64
	for _, w := range partW {
		total += w
	}
	avg := float64(total) / float64(p)
	limit := int64(avg * (1 + eps))
	s.extW = growI64s(s.extW, p)
	extW := s.extW[:p]
	for j := 0; j < p; j++ {
		extW[j] = 0
	}
	touched := s.touched[:0]
	defer func() { s.touched = touched }()
	for iter := 0; iter < 4*n; iter++ {
		h := int32(0)
		for j := 1; j < p; j++ {
			if partW[j] > partW[h] {
				h = int32(j)
			}
		}
		if partW[h] <= limit {
			return
		}
		light := int32(0)
		for j := 1; j < p; j++ {
			if partW[j] < partW[light] {
				light = int32(j)
			}
		}
		var selV, selTo int32 = -1, -1
		selGain := 0.0
		for v := int32(0); v < int32(n); v++ {
			if parts[v] != h {
				continue
			}
			touched = touched[:0]
			g.Neighbors(v, func(u int32, w int64) {
				pu := parts[u]
				if extW[pu] == 0 {
					touched = append(touched, pu)
				}
				extW[pu] += w
			})
			wv := g.VW[v]
			consider := func(j int32) {
				if j == h || float64(partW[j])+float64(wv) > avg*(1+eps) {
					return
				}
				gain := moveGain(cfg, extW[j]-extW[h], wv, h, j, orig[v], partW[h], partW[j], false)
				if selV < 0 || gain > selGain {
					selV, selTo, selGain = v, j, gain
				}
			}
			for _, j := range touched {
				consider(j)
			}
			// Also allow the globally lightest part even if not adjacent
			// (needed when the heavy part is walled in).
			consider(light)
			for _, j := range touched {
				extW[j] = 0
			}
		}
		if selV < 0 {
			return // nothing movable (e.g. single giant vertex)
		}
		parts[selV] = selTo
		partW[h] -= g.VW[selV]
		partW[selTo] += g.VW[selV]
	}
}
