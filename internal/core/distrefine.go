package core

// Distributed deterministic refinement (Sanders & Seemaier style
// unconstrained local search, adapted to PNR's migration-aware objective).
//
// The serial V-cycle refines each level with runKL: scan the whole boundary,
// apply the single best move, rescan — O(boundary) work per move, all of it
// on one goroutine while every other rank idles. The distributed sweep
// replaces that with rounds of bulk moves:
//
//  1. Ownership blocks. Rank r of R owns the contiguous vertex block
//     [r·⌈n/R⌉-ish, …) of the level's graph (balanced split: the first n%R
//     blocks are one vertex longer). The graph, the partition vector and the
//     part weights are replicated — only the scoring work is split.
//
//  2. Propose. A vertex's candidate is its best strictly-positive move
//     under the full 3-term gain (cut + α·migration + 2β·balance;
//     hard-balance sweeps drop the β term and enforce the (1+ε) limit
//     instead), unconstrained by any other candidate: a pure function of
//     the replicated state. The opening round of a pass scores the unlocked
//     boundary vertices of the rank's block; a per-vertex flag byte tells
//     the boundary apart without a scan (an interior vertex proposes
//     nothing, so skipping it is exact). Applied moves are replicated, so
//     every rank knows which vertices' neighborhoods the last round
//     changed — the moved vertices and their neighbors, the dirty set —
//     and later rounds score exactly those, the whole dirty set on every
//     rank. A vertex outside it keeps its candidate from an earlier round,
//     which was proposed and resolved once already and is not proposed
//     again (its stale gain would let an outdated priority win a
//     conflict); staleness costs quality of proposals — never correctness,
//     and never determinism.
//
//  3. Exchange, once per pass. The opening round's proposals are packed
//     two int64 words per move and all-gathered in ascending rank order
//     (par.AllGatherMoves), so every rank decodes the identical proposal
//     list: all proposals in ascending vertex order, independent of how
//     many ranks produced them. Later rounds exchange nothing: every rank
//     already scored the whole dirty set, which is the very set an
//     exchange of block-wise scores would gather, and pushes it straight
//     onto the resolve heap.
//
//  4. Resolve + apply. Every rank replays the same resolution serially:
//     proposals ordered by (gain desc, vertex id asc, destination asc) via a
//     monomorphic binary heap — a strict total order with at most one
//     proposal per vertex, so the order in which proposals arrive cannot
//     matter — each re-scored against the current partition before it is
//     applied (earlier moves this round may have changed its gain), skipped
//     if its vertex is locked, its gain is no longer positive, its source
//     part would be emptied, or (hard-balance) its destination would exceed
//     the limit. Applied vertices lock for the rest of the pass. The replay
//     is deterministic arithmetic on replicated state, so all ranks finish
//     the round with byte-identical partitions and applied counts —
//     conflict resolution without a coordinator, and termination without a
//     collective.
//
// Rounds repeat until one applies nothing; passes (with all locks cleared)
// repeat up to klPasses like the serial KL. Every applied move has
// strictly positive recomputed gain, so the objective strictly decreases
// and the sweep cannot oscillate. A final paredassert cross-check reruns
// the whole sweep through the serial loopback exchanger and asserts
// byte-identical output — the rank-count-invariance contract, executable.

import (
	"fmt"
	"math"

	"pared/internal/check"
	"pared/internal/graph"
)

// Exchanger is the collective surface the distributed refinement sweep
// needs. *par.Comm satisfies it; Serial is the in-process single-rank
// loopback (the serial reference the cross-checks compare against). The
// interface lives here so core does not import par: the sweep's protocol is
// defined by these three collectives, not by a transport.
type Exchanger interface {
	// Rank and Size follow the par.Comm convention.
	Rank() int
	Size() int
	// AllGatherMoves concatenates every rank's packed move words in
	// ascending rank order into out (grown as needed, returned). The result
	// must not alias any sender's buffer; senders reuse a sent buffer no
	// sooner than two exchanges later (see the ping-pong at the call site).
	AllGatherMoves(moves []int64, views [][]int64, out []int64) []int64
	// BcastInt32 distributes root's slice to every rank. Receivers treat
	// the result as read-only (it may alias the root's buffer).
	BcastInt32(root int, xs []int32) []int32
}

// loopback is the single-rank Exchanger: the serial reference
// implementation of the exchange protocol.
type loopback struct{}

func (loopback) Rank() int { return 0 }
func (loopback) Size() int { return 1 }
func (loopback) AllGatherMoves(moves []int64, views [][]int64, out []int64) []int64 {
	if cap(out) < len(moves) {
		out = make([]int64, len(moves))
	}
	out = out[:len(moves)]
	copy(out, moves)
	return out
}
func (loopback) BcastInt32(root int, xs []int32) []int32 { return xs }

// Serial is the single-rank loopback Exchanger: Config.DistRefine = Serial
// runs the distributed sweep's exact move selection without any
// communication — the reference the multi-rank runs must match byte for
// byte, and the way serial callers (tests, experiments) opt into the sweep.
var Serial Exchanger = loopback{}

// distMove is one decoded move proposal.
type distMove struct {
	gain float64
	v    int32
	to   int32
}

// appendMove packs one proposal as the two words AllGatherMoves carries:
// v<<32 | to, then the gain's float bits.
func appendMove(buf []int64, v, to int32, gain float64) []int64 {
	return append(buf, int64(v)<<32|int64(uint32(to)), int64(math.Float64bits(gain)))
}

// decodeMove unpacks the word pair appendMove packed. The words arrive from
// other ranks, so a vertex outside [0, n) or a part outside [0, p) panics
// naming the word instead of indexing out of range (par.Run returns a rank
// panic as an error).
func decodeMove(w0, w1 int64, n, p int) distMove {
	v, to := w0>>32, w0&0xffffffff
	if v < 0 || v >= int64(n) || to >= int64(p) {
		panic(fmt.Sprintf("core: move word %#x names vertex %d and part %d, want < %d and < %d", uint64(w0), v, to, n, p))
	}
	return distMove{gain: math.Float64frombits(uint64(w1)), v: int32(v), to: int32(to)}
}

// Per-vertex flag bits of distScratch.flags.
const (
	flagLocked   uint8 = 1 << iota // moved this pass
	flagBoundary                   // may have a neighbor in another part
	flagQueued                     // already in the dirty set being built
)

// distScratch holds the sweep's work buffers, embedded in klScratch so the
// V-cycle drivers reuse them across levels and cycles. Steady state
// allocates nothing: slices grow to the largest graph seen.
type distScratch struct {
	partW    []int64 // replicated part weights
	partCnt  []int32 // vertices per part (empty-part guard)
	flags    []uint8 // per-vertex flagLocked | flagBoundary | flagQueued
	extW     []int64 // per-part weight scratch of one scored vertex, length p
	touched  []int32 // parts extW holds, at most p
	pack     [2][]int64
	parity   int       // which pack buffer the next exchange sends
	views    [][]int64 // AllGatherMoves header scratch, one per rank
	gathered []int64   // AllGatherMoves output
	heap     []distMove
	appliedV []int32 // vertices moved by the last resolveMoves, in apply order
	dirty    []int32 // the last resolve's moved vertices and their neighbors
	// onApply, when set (the oracle tests), observes every applied move.
	onApply func(v, to int32)
}

// ensure grows the scratch for an n-vertex graph, p parts and R ranks.
func (ds *distScratch) ensure(n, p, R int) {
	ds.partW = growI64s(ds.partW, p)
	ds.partCnt = growI32s(ds.partCnt, p)
	if cap(ds.flags) < n {
		ds.flags = make([]uint8, n)
		ds.appliedV = make([]int32, 0, n)
		ds.dirty = make([]int32, 0, n)
	}
	ds.flags = ds.flags[:n]
	if cap(ds.extW) < p {
		ds.extW = make([]int64, p)
		ds.touched = make([]int32, p)
	}
	if cap(ds.views) < R {
		ds.views = make([][]int64, R)
	}
	ds.views = ds.views[:R]
}

// distLess orders move a before move b: higher gain first, ties by vertex
// id then destination. The float comparisons realize the equal-gain
// tie-break without a float == (the > and < clauses have both failed when
// the id compare runs).
func distLess(a, b distMove) bool {
	if a.gain > b.gain {
		return true
	}
	if a.gain < b.gain {
		return false
	}
	if a.v != b.v {
		return a.v < b.v
	}
	return a.to < b.to
}

// distDown is container/heap's siftDown, monomorphic over distMove:
// heap.Interface would box every element on the resolution hot loop.
func distDown(h []distMove, i0, n int) {
	h = h[:n] // pin the heap bound for the index proofs below
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && distLess(h[j2], h[j1]) {
			j = j2
		}
		if !distLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// distScoreVertex scores one vertex: it returns v's best strictly-positive
// move under the current replicated state, or to = -1, and records in
// flags[v] whether v has a neighbor in another part. A vertex it does not
// scan (locked, or the last of its part) keeps the bit set: round 0 skips
// only vertices whose bit is clear, so a superset of the boundary is exact.
// extW must enter zeroed and leaves zeroed; touchedBuf holds at most one
// entry per part, so it never grows past its ensure()d capacity.
func distScoreVertex(g *graph.Graph, parts, orig []int32, partW []int64, partCnt []int32, flags []uint8, cfg Config, hardBalance bool, limit int64, v int32, extW []int64, touchedBuf []int32) (selTo int32, selGain float64) {
	selTo = -1
	i := parts[v]
	if flags[v]&flagLocked != 0 || partCnt[i] <= 1 {
		// Locked, or the last vertex of part i (moving it would empty the
		// part): no move, and no scan to clear the bit.
		flags[v] |= flagBoundary
		return
	}
	touched := touchedBuf[:0]
	cross := false
	g.Neighbors(v, func(u int32, w int64) {
		pu := parts[u]
		if extW[pu] == 0 {
			touched = append(touched, pu)
		}
		extW[pu] += w
		if pu != i {
			cross = true
		}
	})
	if !cross {
		flags[v] &^= flagBoundary
	} else {
		flags[v] |= flagBoundary
		wv := g.VW[v]
		for _, j := range touched {
			if j == i {
				continue
			}
			if hardBalance && partW[j]+wv > limit {
				continue
			}
			gain := moveGain(cfg, extW[j]-extW[i], wv, i, j, orig[v], partW[i], partW[j], hardBalance)
			// ">= && j<" is the equal-gain tie-break without a float ==;
			// selGain starts at 0, so only strictly positive gains ever
			// select (the sweep proposes improvements, not hill climbs).
			if gain > selGain || (selTo >= 0 && gain >= selGain && j < selTo) {
				selTo, selGain = j, gain
			}
		}
	}
	for _, j := range touched {
		extW[j] = 0
	}
	return selTo, selGain
}

// resolveMoves replays one round's proposals against the current partition —
// the deterministic conflict resolution every rank runs identically. The
// proposals are ds.heap (empty, or this round's locally scored ones) plus
// the gathered words in packed; they are re-ordered best-gain-first (ties by
// vertex id, then destination) and each is re-scored before application.
// Returns the number of applied moves (identical on every rank, so the
// round loop needs no extra collective to agree on termination) and leaves
// ds.heap empty.
func resolveMoves(ds *distScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config, hardBalance bool, limit int64, packed []int64) int {
	n := len(g.VW)
	parts = parts[:n]
	orig = orig[:n]
	partW := ds.partW[:p]
	partCnt := ds.partCnt[:p]
	flags := ds.flags[:n]
	appliedV := ds.appliedV[:0]
	h := ds.heap
	for k := 0; k+1 < len(packed); k += 2 {
		h = append(h, decodeMove(packed[k], packed[k+1], n, p))
	}
	ds.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		distDown(h, i, len(h))
	}
	applied := 0
	for len(h) > 0 {
		m := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		distDown(h, 0, last)
		v := m.v
		if flags[v]&flagLocked != 0 || m.to == parts[v] {
			continue
		}
		from := parts[v]
		if partCnt[from] <= 1 {
			continue // a chain of departures must not empty a part
		}
		wv := g.VW[v]
		if hardBalance && partW[m.to]+wv > limit {
			continue
		}
		// Re-score against the current partition: earlier applications this
		// round may have moved neighbors or shifted part weights.
		var extI, extJ int64
		g.Neighbors(v, func(u int32, w int64) {
			pu := parts[u]
			if pu == from {
				extI += w
			}
			if pu == m.to {
				extJ += w
			}
		})
		if moveGain(cfg, extJ-extI, wv, from, m.to, orig[v], partW[from], partW[m.to], hardBalance) <= 0 {
			continue
		}
		parts[v] = m.to
		partW[from] -= wv
		partW[m.to] += wv
		partCnt[from]--
		partCnt[m.to]++
		flags[v] |= flagLocked
		appliedV = append(appliedV, v)
		applied++
		if ds.onApply != nil {
			ds.onApply(v, m.to)
		}
	}
	ds.heap = h
	ds.appliedV = appliedV
	if check.Enabled {
		check.PartitionWeights(g, parts, p, partW, "core.resolveMoves")
	}
	return applied
}

// distProposeDirty is the scoring of rounds after the first: the last
// round's applied moves (replicated — every rank resolved the identical
// list) are the only state change, so only the moved vertices and their
// neighbors can have a different best move. Every rank scores all of them
// and pushes the proposals straight onto ds.heap: the dirty set is a pure
// function of the replicated applied list, so each rank builds the very
// proposal set an exchange of block-wise scores would have gathered, and
// no exchange is needed. Everyone else keeps its possibly-stale candidate
// from an earlier round, already proposed and resolved once (re-proposing
// it with a stale gain would let outdated priorities win conflicts).
func distProposeDirty(ds *distScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config, hardBalance bool, limit int64) {
	flags := ds.flags
	dirty := ds.dirty[:0]
	for _, v := range ds.appliedV {
		if flags[v]&flagQueued == 0 {
			flags[v] |= flagQueued
			dirty = append(dirty, v)
		}
		g.Neighbors(v, func(u int32, _ int64) {
			if flags[u]&flagQueued == 0 {
				flags[u] |= flagQueued
				dirty = append(dirty, u)
			}
		})
	}
	ds.dirty = dirty
	partW, partCnt := ds.partW[:p], ds.partCnt[:p]
	extW, touched := ds.extW[:p], ds.touched[:p]
	h := ds.heap[:0]
	for _, v := range dirty {
		flags[v] &^= flagQueued
		if to, gain := distScoreVertex(g, parts, orig, partW, partCnt, flags, cfg, hardBalance, limit, v, extW, touched); to >= 0 {
			h = append(h, distMove{gain: gain, v: v, to: to})
		}
	}
	ds.heap = h
}

// distRefineSweep is the distributed replacement for one refineKL (or, with
// hardBalance, one polishKL) call: all ranks of cfg.DistRefine enter with
// byte-identical (g, parts, orig, cfg) and leave with byte-identical parts.
func distRefineSweep(s *klScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config, hardBalance bool) {
	n := len(g.VW)
	if n == 0 || p <= 1 {
		return // same n and p everywhere: all ranks skip in lockstep
	}
	parts = parts[:n]
	ex := cfg.DistRefine
	R := ex.Size()
	rank := ex.Rank()
	ds := &s.dist
	ds.ensure(n, p, R)
	partW := ds.partW[:p]
	partCnt := ds.partCnt[:p]
	for j := 0; j < p; j++ {
		partW[j] = 0
		partCnt[j] = 0
	}
	for v := 0; v < n; v++ {
		partW[parts[v]] += g.VW[v]
		partCnt[parts[v]]++
	}
	var limit int64
	if hardBalance {
		var total int64
		for _, w := range partW {
			total += w
		}
		limit = int64(float64(total) / float64(p) * (1 + eps))
	}
	// Contiguous balanced block split: the first n%R ranks own one extra
	// vertex. Blocks tile [0, n) in rank order, which is what makes the
	// rank-ordered AllGatherMoves concatenation a list in ascending vertex
	// order for ANY R.
	q, r := n/R, n%R
	lo0 := rank * q
	if rank < r {
		lo0 += rank
	} else {
		lo0 += r
	}
	hi0 := lo0 + q
	if rank < r {
		hi0++
	}
	// Until its first scan, every vertex of the block may be on the
	// boundary; the bit is only ever read for the block.
	flags := ds.flags[:n]
	clear(flags)
	for v := lo0; v < hi0; v++ {
		flags[v] = flagBoundary
	}
	for pass := 0; pass < klPasses; pass++ {
		for v := range flags {
			flags[v] &^= flagLocked
		}
		appliedInPass := 0
		for round := 0; ; round++ {
			var packed []int64
			if round == 0 {
				// The opening round scores this block's boundary and packs
				// as it scores (an interior vertex proposes nothing), then
				// exchanges: the pass's only collective. The send buffers
				// ping-pong: the buffer sent in exchange e is reused in
				// exchange e+2, by which point every peer has entered
				// exchange e+1 — which it can only do after folding
				// (copying) exchange e's lanes — so the overwrite races with
				// nobody. Only this round writes a pack buffer, so a peer
				// still copying the last one while this rank runs its later
				// rounds reads it undisturbed.
				buf := ds.pack[ds.parity][:0]
				for v := int32(lo0); v < int32(hi0); v++ {
					if flags[v]&flagBoundary == 0 {
						continue
					}
					if to, gain := distScoreVertex(g, parts, orig, partW, partCnt, flags, cfg, hardBalance, limit, v, ds.extW[:p], ds.touched[:p]); to >= 0 {
						buf = appendMove(buf, v, to, gain)
					}
				}
				ds.pack[ds.parity] = buf
				ds.parity ^= 1
				ds.gathered = ex.AllGatherMoves(buf, ds.views, ds.gathered)
				packed = ds.gathered
			} else {
				distProposeDirty(ds, g, parts, orig, p, cfg, hardBalance, limit)
			}
			// The resolve heap pops a strict total order (gain desc, v asc,
			// to asc) with at most one proposal per vertex, so the order in
			// which proposals arrive cannot affect the outcome — only the
			// proposal SET must be rank-count-invariant, and both the block
			// tiling and the dirty set are.
			applied := resolveMoves(ds, g, parts, orig, p, cfg, hardBalance, limit, packed)
			appliedInPass += applied
			if applied == 0 {
				break // computed from replicated state: all ranks agree
			}
		}
		if appliedInPass == 0 {
			break
		}
	}
}

// distRefineStep dispatches one refinement step through the distributed
// sweep, with the paredassert cross-check: under the assert tag every
// multi-rank sweep is replayed through the Serial loopback on a private
// copy and the results compared byte for byte — the "byte-identical to a
// serial reference for any rank count" contract, executed at every level of
// every V-cycle.
func distRefineStep(s *klScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config, hardBalance bool) {
	if check.Enabled {
		if _, isSerial := cfg.DistRefine.(loopback); !isSerial {
			ref := append([]int32(nil), parts...)
			distRefineSweep(s, g, parts, orig, p, cfg, hardBalance)
			scfg := cfg
			scfg.DistRefine = Serial
			distRefineSweep(new(klScratch), g, ref, orig, p, scfg, hardBalance)
			for v := range parts {
				check.Assertf(parts[v] == ref[v],
					"core: distributed refine (rank %d/%d) diverges from serial reference at vertex %d: %d vs %d",
					cfg.DistRefine.Rank(), cfg.DistRefine.Size(), v, parts[v], ref[v])
			}
			return
		}
	}
	distRefineSweep(s, g, parts, orig, p, cfg, hardBalance)
}

// refineStep runs one soft-balance refinement: the distributed sweep when
// cfg.DistRefine is set, the serial KL variants otherwise.
func refineStep(s *klScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config) {
	if cfg.DistRefine != nil {
		distRefineStep(s, g, parts, orig, p, cfg, false)
		return
	}
	refineKL(s, g, parts, orig, p, cfg)
}

// polishStep runs one hard-balance cut polish, distributed or serial like
// refineStep.
func polishStep(s *klScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config) {
	if cfg.DistRefine != nil {
		distRefineStep(s, g, parts, orig, p, cfg, true)
		return
	}
	polishKL(s, g, parts, orig, p, cfg)
}
