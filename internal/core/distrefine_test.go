package core

import (
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pared/internal/graph"
	"pared/internal/par"
	"pared/internal/partition"
)

// packMove encodes one proposal the way distRefineSweep packs it for
// AllGatherMoves.
func packMove(v, to int32, gain float64) [2]int64 {
	w := appendMove(nil, v, to, gain)
	return [2]int64{w[0], w[1]}
}

// resolveSetup fills a distScratch's replicated state (partW, partCnt, no
// flags set) from the partition vector, the way distRefineSweep does before
// the round loop.
func resolveSetup(ds *distScratch, g *graph.Graph, parts []int32, p int) {
	ds.ensure(g.N(), p, 1)
	partW, partCnt := ds.partW[:p], ds.partCnt[:p]
	for j := 0; j < p; j++ {
		partW[j] = 0
		partCnt[j] = 0
	}
	for v := 0; v < g.N(); v++ {
		partW[parts[v]] += g.VW[v]
		partCnt[parts[v]]++
	}
	clear(ds.flags)
}

// TestResolveMovesSameVertexEqualGains: two ranks proposing the same vertex
// with equal gains must resolve to exactly one applied move, the
// lower-destination one (the (gain, v, to) order of distLess), with the
// duplicate dropped by the lock — not applied twice, not flip-flopped.
func TestResolveMovesSameVertexEqualGains(t *testing.T) {
	b := graph.NewBuilder(4)
	for v := int32(0); v < 4; v++ {
		b.SetVW(v, 1)
	}
	b.AddEdge(0, 1, 5)
	b.AddEdge(0, 2, 5)
	g := b.Build()
	parts := []int32{0, 1, 2, 0}
	orig := append([]int32(nil), parts...)
	cfg := Config{}.withDefaults()
	ds := new(distScratch)
	resolveSetup(ds, g, parts, 3)
	m1 := packMove(0, 1, 4.9)
	m2 := packMove(0, 2, 4.9)
	packed := []int64{m1[0], m1[1], m2[0], m2[1]}
	applied := resolveMoves(ds, g, parts, orig, 3, cfg, false, 0, packed)
	if applied != 1 {
		t.Fatalf("applied = %d, want exactly 1 of the two duplicate proposals", applied)
	}
	if parts[0] != 1 {
		t.Errorf("vertex 0 moved to %d, want destination 1 (lower-to tie-break)", parts[0])
	}
}

// TestResolveMovesEmptyPartGuard: a singleton part's vertex must never move
// (even with the best gain in the round), and a chain of departures from a
// two-vertex part must stop after the first — resolution may not empty a
// part, because an empty part can never be repopulated by a cut-driven gain.
func TestResolveMovesEmptyPartGuard(t *testing.T) {
	b := graph.NewBuilder(5)
	for v := int32(0); v < 5; v++ {
		b.SetVW(v, 1)
	}
	b.AddEdge(0, 2, 10)
	b.AddEdge(1, 3, 10)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(4, 1, 10)
	g := b.Build()
	parts := []int32{0, 0, 1, 1, 2} // part 2 = {4} is a singleton
	orig := append([]int32(nil), parts...)
	cfg := Config{}.withDefaults()
	ds := new(distScratch)
	resolveSetup(ds, g, parts, 3)
	// Best gain in the round belongs to the singleton; then the two part-0
	// vertices both propose to leave with equal gains.
	mv := packMove(4, 0, 100)
	m0 := packMove(0, 1, 5)
	m1 := packMove(1, 1, 5)
	packed := []int64{mv[0], mv[1], m0[0], m0[1], m1[0], m1[1]}
	applied := resolveMoves(ds, g, parts, orig, 3, cfg, false, 0, packed)
	if parts[4] != 2 {
		t.Errorf("singleton part emptied: vertex 4 moved to %d", parts[4])
	}
	if applied != 1 {
		t.Fatalf("applied = %d, want 1 (second departure must not empty part 0)", applied)
	}
	if parts[0] != 1 || parts[1] != 0 {
		t.Errorf("parts[0:2] = [%d %d], want [1 0]: lower id moves, chain stops", parts[0], parts[1])
	}
}

// TestResolveMovesEqualGainIDTieBreak: two different vertices with equal
// gains competing for the last slot under the hard-balance limit — the lower
// vertex id must win (the deterministic tie-break every rank replays).
func TestResolveMovesEqualGainIDTieBreak(t *testing.T) {
	b := graph.NewBuilder(4)
	for v := int32(0); v < 4; v++ {
		b.SetVW(v, 1)
	}
	b.AddEdge(1, 0, 10)
	b.AddEdge(2, 0, 10)
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	parts := []int32{0, 1, 1, 1}
	orig := append([]int32(nil), parts...)
	cfg := Config{}.withDefaults()
	ds := new(distScratch)
	resolveSetup(ds, g, parts, 2)
	limit := int64(2) // part 0 holds weight 1; room for exactly one more
	m1 := packMove(1, 0, 8.9)
	m2 := packMove(2, 0, 8.9)
	packed := []int64{m1[0], m1[1], m2[0], m2[1]}
	applied := resolveMoves(ds, g, parts, orig, 2, cfg, true, limit, packed)
	if applied != 1 {
		t.Fatalf("applied = %d, want 1 (limit admits a single inbound move)", applied)
	}
	if parts[1] != 0 || parts[2] != 1 {
		t.Errorf("parts[1:3] = [%d %d], want [0 1]: equal gains break to the lower id", parts[1], parts[2])
	}
}

// TestDistRefineRankByteIdentity is the rank-count-invariance contract of
// the distributed sweep: for rank counts {1, 2, 8}, every rank's Repartition
// output must be byte-identical to the single-rank Serial reference. Under
// -race this doubles as the data-race check on the move exchange.
func TestDistRefineRankByteIdentity(t *testing.T) {
	for _, p := range []int{4, 8} {
		g, old := refinedScenario(20, p, 4)
		base := Repartition(g, old, p, Config{DistRefine: Serial})
		for _, R := range []int{1, 2, 8} {
			results := make([][]int32, R)
			err := par.Run(R, func(c *par.Comm) {
				results[c.Rank()] = Repartition(g, old, p, Config{DistRefine: c})
			})
			if err != nil {
				t.Fatalf("p=%d R=%d: %v", p, R, err)
			}
			for r := 0; r < R; r++ {
				if !samePartition(base, results[r]) {
					t.Errorf("p=%d R=%d: rank %d diverges from the serial reference", p, R, r)
				}
			}
		}
	}
}

// TestDistRefineGOMAXPROCSInvariance: the sweep must produce the same
// partition for any GOMAXPROCS, serially and with 2 ranks.
func TestDistRefineGOMAXPROCSInvariance(t *testing.T) {
	g, old := refinedScenario(20, 4, 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var base []int32
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		got := Repartition(g, old, 4, Config{DistRefine: Serial})
		ranked := make([][]int32, 2)
		err := par.Run(2, func(c *par.Comm) {
			ranked[c.Rank()] = Repartition(g, old, 4, Config{DistRefine: c})
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", w, err)
		}
		if base == nil {
			base = got
		}
		if !samePartition(base, got) {
			t.Errorf("GOMAXPROCS=%d: serial sweep diverges from GOMAXPROCS=1", w)
		}
		for r, res := range ranked {
			if !samePartition(base, res) {
				t.Errorf("GOMAXPROCS=%d: rank %d/2 diverges from GOMAXPROCS=1 serial", w, r)
			}
		}
	}
}

// TestDistRefineRebalances: the distributed sweep is a drop-in for the
// serial KL — it must still reach the paper's balance bound on the scenarios
// the serial path is pinned on.
func TestDistRefineRebalances(t *testing.T) {
	for _, p := range []int{4, 8} {
		g, old := refinedScenario(28, p, 4)
		newp := Repartition(g, old, p, Config{DistRefine: Serial})
		if im := partition.Imbalance(g, newp, p); im > 0.02 {
			t.Errorf("p=%d: imbalance = %v after distributed refine", p, im)
		}
	}
}

// FuzzResolveMoves feeds resolveMoves arbitrary gathered words, the bytes a
// rank takes off the wire in the opening round of every distributed pass.
// They must either resolve — every part in [0, p), part weights and counts equal to a
// recount — or panic with a "core: " message; never index out of range.
// Wide inputs are raw little-endian word pairs; narrow ones pack one
// (vertex, part, gain) byte triple per move, which reaches the resolution
// far more often.
func FuzzResolveMoves(f *testing.F) {
	const p = 4
	g, parts0 := refinedScenario(6, p, 3)
	n := g.N()
	cfg := Config{}.withDefaults()
	// The seed is a real packed round: the whole graph scored once, every
	// candidate packed the way distRefineSweep packs it.
	ds := new(distScratch)
	resolveSetup(ds, g, parts0, p)
	var round []byte
	for v := int32(0); v < int32(n); v++ {
		if to, gain := distScoreVertex(g, parts0, parts0, ds.partW, ds.partCnt, ds.flags, cfg, false, 0, v, ds.extW[:p], ds.touched[:p]); to >= 0 {
			for _, w := range appendMove(nil, v, to, gain) {
				round = binary.LittleEndian.AppendUint64(round, uint64(w))
			}
		}
	}
	if len(round) == 0 {
		f.Fatal("the seed round proposes no move")
	}
	f.Add(round, true, false)
	f.Add(round, true, true)
	f.Add([]byte{0, 1, 5, 3, 2, 100, 7, 0, 0xfe}, false, false)
	f.Add([]byte{byte(n), 0, 1}, false, true) // a vertex past the graph
	f.Add([]byte{0, p, 1}, false, false)      // a part past p
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<63), true, false)
	f.Fuzz(func(t *testing.T, data []byte, wide, hardBalance bool) {
		var words []int64
		if wide {
			for ; len(data) >= 8; data = data[8:] {
				words = append(words, int64(binary.LittleEndian.Uint64(data)))
			}
		} else {
			for ; len(data) >= 3; data = data[3:] {
				words = appendMove(words, int32(int8(data[0])), int32(int8(data[1])), float64(int8(data[2])))
			}
		}
		parts := append([]int32(nil), parts0...)
		ds := new(distScratch)
		resolveSetup(ds, g, parts, p)
		var total int64
		for _, w := range ds.partW[:p] {
			total += w
		}
		limit := int64(float64(total) / float64(p) * (1 + eps))
		defer func() {
			if r := recover(); r != nil {
				if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "core: ") {
					t.Fatalf("panic without the package prefix: %v", r)
				}
			}
		}()
		resolveMoves(ds, g, parts, parts0, p, cfg, hardBalance, limit, words)
		partW := make([]int64, p)
		partCnt := make([]int32, p)
		for v, q := range parts {
			if q < 0 || int(q) >= p {
				t.Fatalf("vertex %d left in part %d", v, q)
			}
			partW[q] += g.VW[v]
			partCnt[q]++
		}
		if !slices.Equal(partW, ds.partW[:p]) || !slices.Equal(partCnt, ds.partCnt[:p]) {
			t.Fatalf("part weights %v counts %v, recount %v %v", ds.partW[:p], ds.partCnt[:p], partW, partCnt)
		}
	})
}

// countingExchanger is an Exchanger that counts its move exchanges.
type countingExchanger struct {
	Exchanger
	gathers int
}

func (c *countingExchanger) AllGatherMoves(moves []int64, views [][]int64, out []int64) []int64 {
	c.gathers++
	return c.Exchanger.AllGatherMoves(moves, views, out)
}

// TestDistRefineExchangesOncePerPass pins the sweep's collectives: one
// AllGatherMoves per pass, whatever number of rounds the pass runs, on a
// soft-balance sweep and on the hard-balance polish of a forced-balanced
// start. The oracle, which exchanged every round, counts the rounds on the
// same inputs (both pins were read off these runs; every pass ends with a
// round that applies nothing, so rounds > passes whenever a pass moves).
func TestDistRefineExchangesOncePerPass(t *testing.T) {
	const p = 8
	g, old := refinedScenario(28, p, 4)
	cfg := Config{}.withDefaults()
	hard := append([]int32(nil), old...)
	forceBalance(nil, g, hard, old, p, cfg)
	for _, tc := range []struct {
		name           string
		start          []int32
		hard           bool
		passes, rounds int
	}{
		{"soft", old, false, 4, 29},
		{"hard", hard, true, 4, 9},
	} {
		ex := &countingExchanger{Exchanger: Serial}
		dcfg := cfg
		dcfg.DistRefine = ex
		distRefineSweep(new(klScratch), g, append([]int32(nil), tc.start...), old, p, dcfg, tc.hard)
		ref := &countingExchanger{Exchanger: Serial}
		rcfg := cfg
		rcfg.DistRefine = ref
		refDistRefineSweep(new(refDistScratch), g, append([]int32(nil), tc.start...), old, p, rcfg, tc.hard, func(int32, int32) {})
		if ex.gathers != tc.passes || ref.gathers != tc.rounds {
			t.Errorf("%s: %d exchanges, want one per pass (%d); the oracle exchanged %d times, want one per round (%d)",
				tc.name, ex.gathers, tc.passes, ref.gathers, tc.rounds)
		}
	}
}
