package core

import (
	"math/rand"
	"slices"
	"testing"

	"pared/internal/check"
	"pared/internal/graph"
	"pared/internal/par"
)

// The distributed sweep as it was when every round exchanged its proposals:
// round 0 scored a rank's whole block, later rounds re-scored the block's
// share of the dirty set, and each round all-gathered what it scored. Bodies
// unchanged; the names carry a ref prefix, the sweep takes its scratch
// directly, and rec reports every applied move in apply order. It is the
// oracle the one-exchange-per-pass sweep must match move for move.

func refGrowBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// refDistScratch holds the sweep's work buffers, embedded in klScratch so the
// V-cycle drivers reuse them across levels and cycles. Steady state
// allocates nothing: slices grow to the largest graph seen.
type refDistScratch struct {
	partW    []int64   // replicated part weights
	partCnt  []int32   // vertices per part (empty-part guard)
	locked   []bool    // moved this pass
	candTo   []int32   // per-vertex best destination (-1: none)
	candGain []float64 // gain of candTo
	extW     []int64   // per-part weight scratch of one scored vertex, length p
	touched  []int32   // parts extW holds, at most p
	pack     [2][]int64
	parity   int       // which pack buffer the next exchange sends
	views    [][]int64 // AllGatherMoves header scratch, one per rank
	gathered []int64   // AllGatherMoves output
	heap     []distMove
	appliedV []int32 // vertices moved by the last refResolveMoves, in apply order
	stamp    []int32 // per-vertex dirty stamp (generation scheme, no clearing)
	stampGen int32   // current dirty generation
	dirty    []int32 // this rank's in-block vertices needing a re-score
}

// ensure grows the scratch for an n-vertex graph, p parts and R ranks.
func (ds *refDistScratch) ensure(n, p, R int) {
	ds.partW = growI64s(ds.partW, p)
	if cap(ds.partCnt) < p {
		ds.partCnt = make([]int32, p)
	}
	ds.locked = refGrowBool(ds.locked, n)
	if cap(ds.candTo) < n {
		ds.candTo = make([]int32, n)
		ds.candGain = make([]float64, n)
	}
	if cap(ds.appliedV) < n {
		ds.appliedV = make([]int32, 0, n)
		ds.dirty = make([]int32, 0, n)
	}
	// New stamp entries are zero; stampGen only grows, so they read as clean.
	ds.stamp = growI32s(ds.stamp, n)
	if cap(ds.extW) < p {
		ds.extW = make([]int64, p)
		ds.touched = make([]int32, p)
	}
	if cap(ds.views) < R {
		ds.views = make([][]int64, R)
	}
	ds.views = ds.views[:R]
}

// refScoreRange scores vertices [lo, hi) of the replicated graph against
// the current partition: candTo[v]/candGain[v] receive v's best
// strictly-positive move, or candTo[v] = -1. Each vertex's result is a pure
// function of (g, parts, orig, partW, partCnt, locked, cfg). extW and
// touchedBuf are the per-vertex scratch (length p).
func refScoreRange(g *graph.Graph, parts, orig []int32, partW []int64, partCnt []int32, locked []bool, p int, cfg Config, hardBalance bool, limit int64, lo, hi int, extW []int64, touchedBuf []int32, candTo []int32, candGain []float64) {
	n := len(g.VW) // g.N(), as the length fact the index proofs chain from
	parts = parts[:n]
	orig = orig[:n]
	locked = locked[:n]
	candTo = candTo[:n]
	candGain = candGain[:n]
	extW = extW[:p]
	partW = partW[:p]
	if hi > n {
		hi = n
	}
	for v := int32(lo); v < int32(hi); v++ {
		refScoreVertex(g, parts, orig, partW, partCnt, locked, cfg, hardBalance, limit, v, extW, touchedBuf, candTo, candGain)
	}
}

// refScoreVertex scores one vertex: candTo[v]/candGain[v] receive v's best
// strictly-positive move under the current replicated state, or candTo[v] =
// -1. extW must enter zeroed and leaves zeroed; touchedBuf holds at most one
// entry per part, so it never grows past its ensure()d capacity.
func refScoreVertex(g *graph.Graph, parts, orig []int32, partW []int64, partCnt []int32, locked []bool, cfg Config, hardBalance bool, limit int64, v int32, extW []int64, touchedBuf []int32, candTo []int32, candGain []float64) {
	touched := touchedBuf[:0]
	candTo[v] = -1
	if locked[v] {
		return
	}
	i := parts[v]
	if partCnt[i] <= 1 {
		return // moving the last vertex would empty part i
	}
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
	if cross {
		wv := g.VW[v]
		var selTo int32 = -1
		selGain := 0.0
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
		if selTo >= 0 {
			candTo[v] = selTo
			candGain[v] = selGain
		}
	}
	for _, j := range touched {
		extW[j] = 0
	}
}

// refResolveMoves replays one round's gathered proposals against the current
// partition — the deterministic conflict resolution every rank runs
// identically. packed holds all ranks' proposals in ascending vertex order;
// they are re-ordered best-gain-first (ties by vertex id, then destination)
// and each is re-scored before application. Returns the number of applied
// moves (identical on every rank, so the round loop needs no extra
// collective to agree on termination).
func refResolveMoves(ds *refDistScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config, hardBalance bool, limit int64, packed []int64) int {
	n := len(g.VW)
	parts = parts[:n]
	orig = orig[:n]
	partW := ds.partW[:p]
	partCnt := ds.partCnt[:p]
	locked := ds.locked[:n]
	appliedV := ds.appliedV[:0]
	h := ds.heap[:0]
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
		if locked[v] || m.to == parts[v] {
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
		locked[v] = true
		appliedV = append(appliedV, v)
		applied++
	}
	ds.appliedV = appliedV
	if check.Enabled {
		check.PartitionWeights(g, parts, p, partW, "core.refResolveMoves")
	}
	return applied
}

// refRescoreDirty is the incremental scoring of rounds after the first: the
// last round's applied moves (replicated — every rank resolved the identical
// list) are the only state change, so only the moved vertices and their
// neighbors can have a different best move. Each is re-scored if it falls in
// this rank's block; everyone else keeps its possibly-stale candidate, which
// the resolve re-score vets before any application. The dirty set is a pure
// function of the replicated applied list and the (n, R)-determined block
// geometry, so which vertices re-score — and therefore every candidate
// array — stays byte-identical across rank counts. Stamps deduplicate
// without clearing: the generation counter only grows.
func refRescoreDirty(ds *refDistScratch, g *graph.Graph, parts, orig []int32, partW []int64, partCnt []int32, locked []bool, p int, cfg Config, hardBalance bool, limit int64, lo0, hi0 int) {
	ds.stampGen++
	gen := ds.stampGen
	stamp := ds.stamp
	dirty := ds.dirty[:0]
	for _, v := range ds.appliedV {
		if stamp[v] != gen {
			stamp[v] = gen
			if int(v) >= lo0 && int(v) < hi0 {
				dirty = append(dirty, v)
			}
		}
		g.Neighbors(v, func(u int32, _ int64) {
			if stamp[u] != gen {
				stamp[u] = gen
				if int(u) >= lo0 && int(u) < hi0 {
					dirty = append(dirty, u)
				}
			}
		})
	}
	ds.dirty = dirty
	extW, touched := ds.extW[:p], ds.touched[:p]
	candTo, candGain := ds.candTo, ds.candGain
	for _, v := range dirty {
		refScoreVertex(g, parts, orig, partW, partCnt, locked, cfg, hardBalance, limit, v, extW, touched, candTo, candGain)
	}
}

// refDistRefineSweep is the distributed replacement for one refineKL (or, with
// hardBalance, one polishKL) call: all ranks of cfg.DistRefine enter with
// byte-identical (g, parts, orig, cfg) and leave with byte-identical parts.
func refDistRefineSweep(ds *refDistScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config, hardBalance bool, rec func(v, to int32)) {
	n := len(g.VW)
	if n == 0 || p <= 1 {
		return // same n and p everywhere: all ranks skip in lockstep
	}
	parts = parts[:n]
	ex := cfg.DistRefine
	R := ex.Size()
	rank := ex.Rank()
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
	locked := ds.locked[:n]
	candTo, candGain := ds.candTo[:n], ds.candGain[:n]
	for pass := 0; pass < klPasses; pass++ {
		for i := range locked {
			locked[i] = false
		}
		appliedInPass := 0
		for round := 0; ; round++ {
			if round > 0 {
				// Later rounds: only the last resolve's moves changed
				// anything — re-score just their neighborhoods.
				refRescoreDirty(ds, g, parts, orig, partW, partCnt, locked, p, cfg, hardBalance, limit, lo0, hi0)
			} else {
				refScoreRange(g, parts, orig, partW, partCnt, locked, p, cfg, hardBalance, limit, lo0, hi0, ds.extW[:p], ds.touched[:p], candTo, candGain)
			}
			// Pack this block's proposals — the whole block on the opening
			// round, only the freshly re-scored dirty set afterwards (a stale
			// candidate was already proposed and resolved once; re-sending it
			// with a stale gain would let outdated priorities win conflicts).
			// The resolve heap pops a strict total order (gain desc, v asc,
			// to asc) with at most one proposal per vertex, so pack ORDER
			// cannot affect the outcome — only the proposal SET must be
			// rank-count-invariant, and both the block tiling and the dirty
			// set are. The send buffers ping-pong: the buffer sent in
			// exchange e is reused in exchange e+2, by which point every peer
			// has entered exchange e+1 — which it can only do after folding
			// (copying) exchange e's lanes — so the overwrite races with
			// nobody.
			buf := ds.pack[ds.parity][:0]
			if round == 0 {
				for v := lo0; v < hi0; v++ {
					if candTo[v] >= 0 {
						buf = appendMove(buf, int32(v), candTo[v], candGain[v])
					}
				}
			} else {
				for _, v := range ds.dirty {
					if candTo[v] >= 0 {
						buf = appendMove(buf, v, candTo[v], candGain[v])
					}
				}
			}
			ds.pack[ds.parity] = buf
			ds.parity ^= 1
			ds.gathered = ex.AllGatherMoves(buf, ds.views, ds.gathered)
			applied := refResolveMoves(ds, g, parts, orig, p, cfg, hardBalance, limit, ds.gathered)
			for _, v := range ds.appliedV {
				rec(v, parts[v])
			}
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

// sweepMove is one applied move of a sweep, in apply order.
type sweepMove struct{ v, to int32 }

// checkSweepMatchesOracle runs the soft-balance sweep from start, then the
// hard-balance sweep from its result, through the oracle on the Serial
// loopback and through distRefineSweep on Serial and on R ∈ {1, 2, 3, 8}
// ranks of par.Run: every rank must leave the oracle's parts and have
// applied the oracle's moves in the oracle's order.
func checkSweepMatchesOracle(t *testing.T, g *graph.Graph, start, orig []int32, p int, cfg Config) {
	t.Helper()
	for _, hard := range []bool{false, true} {
		want := append([]int32(nil), start...)
		var wantSeq []sweepMove
		rcfg := cfg
		rcfg.DistRefine = Serial
		refDistRefineSweep(new(refDistScratch), g, want, orig, p, rcfg, hard, func(v, to int32) {
			wantSeq = append(wantSeq, sweepMove{v, to})
		})
		run := func(ex Exchanger) ([]int32, []sweepMove) {
			parts := append([]int32(nil), start...)
			var seq []sweepMove
			s := new(klScratch)
			s.dist.onApply = func(v, to int32) { seq = append(seq, sweepMove{v, to}) }
			dcfg := cfg
			dcfg.DistRefine = ex
			distRefineSweep(s, g, parts, orig, p, dcfg, hard)
			return parts, seq
		}
		if parts, seq := run(Serial); !slices.Equal(parts, want) || !slices.Equal(seq, wantSeq) {
			t.Fatalf("hard=%v Serial: %d moves to %v, oracle %d moves to %v", hard, len(seq), parts, len(wantSeq), want)
		}
		for _, R := range []int{1, 2, 3, 8} {
			parts := make([][]int32, R)
			seqs := make([][]sweepMove, R)
			if err := par.Run(R, func(c *par.Comm) {
				parts[c.Rank()], seqs[c.Rank()] = run(c)
			}); err != nil {
				t.Fatalf("hard=%v R=%d: %v", hard, R, err)
			}
			for r := range parts {
				if !slices.Equal(parts[r], want) || !slices.Equal(seqs[r], wantSeq) {
					t.Fatalf("hard=%v R=%d rank %d: %d moves to %v, oracle %d moves to %v", hard, R, r, len(seqs[r]), parts[r], len(wantSeq), want)
				}
			}
		}
		start = want
	}
}

// FuzzDistRefineSweep holds the one-exchange-per-pass sweep to the oracle on
// arbitrary small graphs (fuzzKLCase: up to 48 vertices, 2 to 70 parts,
// migration origins apart from the start), soft and hard balance, move for
// move on every rank count checkSweepMatchesOracle runs.
func FuzzDistRefineSweep(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 400)
		rng.Read(data)
		data[0] = byte(30 + seed) // n from 33 to 38
		data[1] = byte(seed % 4)  // p from 2 to 5
		f.Add(data)
	}
	cfg := Config{}.withDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		g, start, orig, p := fuzzKLCase(data)
		checkSweepMatchesOracle(t, g, start, orig, p, cfg)
	})
}

// TestDistRefineMatchesOracle runs the oracle comparison on the meshes the
// rank-identity tests use, where passes run many rounds.
func TestDistRefineMatchesOracle(t *testing.T) {
	cfg := Config{}.withDefaults()
	for _, p := range []int{4, 8} {
		g, old := refinedScenario(20, p, 4)
		checkSweepMatchesOracle(t, g, old, old, p, cfg)
	}
}
