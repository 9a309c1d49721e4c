package pared

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/graph"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/partition"
	"pared/internal/partition/sfc"
)

// runSFCChain drives the 10-epoch adapt/rebalance chain of runChain through
// the coordinator-free pipeline: SFC bootstrap, SFC rebalance every epoch.
func runSFCChain(t *testing.T, p int, cfg Config) ([]epochRecord, [][4]forest.VertexID) {
	t.Helper()
	cfg.Mode = ModeSFC
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	var recs []epochRecord
	var leaves [][4]forest.VertexID
	err := par.Run(p, func(c *par.Comm) {
		e := BootstrapWith(c, m, cfg)
		for epoch := 0; epoch < 10; epoch++ {
			e.Adapt(est, 0.8, 0, 7)
			st := e.Rebalance(epoch%3 != 2)
			if err := e.CheckConsistency(); err != nil {
				panic(err)
			}
			if st.Ran && !bandForm(e.sfc.order, e.Owner) {
				panic("SFC rebalance left a non-band-form owner map")
			}
			if c.Rank() == 0 {
				recs = append(recs, epochRecord{
					Ran:       st.Ran,
					Owner:     append([]int32(nil), e.Owner...),
					CutBefore: st.CutBefore, CutAfter: st.CutAfter,
					MovedTrees: st.MovedTrees, MovedEls: st.MovedElements,
				})
			}
		}
		g := e.GatherForest(0)
		if c.Rank() == 0 {
			leaves = g.CanonicalLeaves()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, leaves
}

// TestSFCDeterministicAcrossGOMAXPROCS is the acceptance criterion: the
// 10-epoch SFC chain must produce byte-identical owner maps, cut values and
// migration counts for GOMAXPROCS 1, 2 and 8, and the adapted mesh must
// still equal the serial refinement of the same schedule.
func TestSFCDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const p = 4
	cfg := Config{}
	base, baseLeaves := runSFCChain(t, p, cfg)
	ran := 0
	for _, r := range base {
		if r.Ran {
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no epoch actually rebalanced; the comparison proves nothing")
	}
	for _, procs := range []int{1, 2, 8} {
		old := runtime.GOMAXPROCS(procs)
		again, leaves := runSFCChain(t, p, cfg)
		runtime.GOMAXPROCS(old)
		compareChains(t, "sfc rerun", base, again)
		if len(leaves) != len(baseLeaves) {
			t.Fatalf("GOMAXPROCS=%d: leaf count changed", procs)
		}
		for i := range leaves {
			if leaves[i] != baseLeaves[i] {
				t.Fatalf("GOMAXPROCS=%d: leaf %d differs", procs, i)
			}
		}
	}
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	want := serialReference(m, cornerEst(geom.Vec3{X: 1, Y: 1}), 0.8, 7, 10)
	if len(baseLeaves) != len(want) {
		t.Fatalf("distributed %d leaves, serial reference %d", len(baseLeaves), len(want))
	}
	for i := range want {
		if baseLeaves[i] != want[i] {
			t.Fatalf("leaf %d differs from serial reference", i)
		}
	}
}

// TestSFCScanMatchesSerialAssign is the equivalence contract of the
// distributed scan: every forced epoch's engine-produced owner map must be
// byte-identical to the serial sfc.Assign computed from the complete weight
// vector (gathered only by the test) and the pre-epoch owner map. This pins
// the ExclusiveScan offset, the band arithmetic, the snapping, and the delta
// exchange in one comparison.
func TestSFCScanMatchesSerialAssign(t *testing.T) {
	const p = 4
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	err := par.Run(p, func(c *par.Comm) {
		e := BootstrapWith(c, m, Config{Mode: ModeSFC})
		keys := sfc.Keys(m, sfc.Hilbert)
		order, _ := sfc.Order(keys)
		var scratch sfc.AssignScratch
		for epoch := 0; epoch < 6; epoch++ {
			e.Adapt(est, 0.8, 0, 7)
			// Reference inputs, captured before the engine mutates anything:
			// the full weight vector and the current owner map.
			old := append([]int32(nil), e.Owner...)
			pairs := make([]int64, 0, 2*len(e.F.Roots()))
			for _, r := range e.F.Roots() {
				pairs = append(pairs, int64(r), int64(e.F.LeafCount(r)))
			}
			vw := make([]int64, m.NumElems())
			for _, src := range c.AllGatherInt64(pairs) {
				for i := 0; i < len(src); i += 2 {
					vw[src[i]] = src[i+1]
				}
			}
			e.Rebalance(true)
			want := sfc.Assign(order, vw, old, p, true, nil, &scratch)
			for i := range want {
				if e.Owner[i] != want[i] {
					panic("engine owner diverges from serial sfc.Assign")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSFCModeSwitchFallback covers the one legal way to enter SFC mode with
// a non-band-form owner map: bootstrap under the PNR coordinator, then
// switch. The first SFC epoch must take the full-weights fallback, produce a
// valid band-form partition, and leave the chain on the scan path. Every
// epoch that runs must report CutBefore and CutAfter equal to
// partition.EdgeCut of the old and new owner maps on the unit dual — after the
// fallback, on the scan path with the cut cached, after a cheap skip, and
// after the owner map was edited in place behind the cache's back.
func TestSFCModeSwitchFallback(t *testing.T) {
	const p = 4
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	dual := graph.FromDual(m)
	err := par.Run(p, func(c *par.Comm) {
		e := Bootstrap(c, m) // PNR bootstrap: owner not curve-contiguous
		sfcCfg := Config{Mode: ModeSFC}
		if err := e.SetConfig(sfcCfg); err != nil {
			panic(err)
		}
		e.Adapt(est, 0.8, 0, 7)
		e.ensureSFC()
		if bandForm(e.sfc.order, e.Owner) {
			panic("test premise broken: PNR bootstrap is already band form")
		}
		for epoch, step := range []string{"fallback", "scan", "skip", "scan", "edited", "scan"} {
			switch step {
			case "skip":
				if err := e.SetConfig(Config{Mode: ModeSFC, ImbalanceTrigger: 1e9}); err != nil {
					panic(err)
				}
			case "edited":
				// Move the last tree of rank 0's band to rank 1, the way a caller
				// might, and write the result into e.Owner in place: the map
				// stays band form, but it is no longer the one the cut was
				// cached with.
				order, next := e.sfc.order, slices.Clone(e.Owner)
				k := 0
				for next[order[k+1]] == 0 {
					k++
				}
				next[order[k]] = 1
				e.migrate(next)
				copy(e.Owner, next)
			}
			old := slices.Clone(e.Owner)
			st := e.Rebalance(step != "skip")
			if st.Ran != (step != "skip") {
				panic(fmt.Sprintf("epoch %d (%s): Ran = %v", epoch, step, st.Ran))
			}
			if st.Ran {
				before, after := partition.EdgeCut(dual, old), partition.EdgeCut(dual, e.Owner)
				if st.CutBefore != before || st.CutAfter != after {
					panic(fmt.Sprintf("epoch %d (%s): cut %d -> %d, EdgeCut of the owner maps %d -> %d",
						epoch, step, st.CutBefore, st.CutAfter, before, after))
				}
			}
			if err := e.CheckConsistency(); err != nil {
				panic(err)
			}
			if !bandForm(e.sfc.order, e.Owner) {
				panic(fmt.Sprintf("epoch %d (%s) did not leave band form", epoch, step))
			}
			if err := e.SetConfig(sfcCfg); err != nil {
				panic(err)
			}
			e.Adapt(est, 0.8, 0, 7)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSFCImbalanceBound checks the paper-style balance guarantee end to end:
// after a forced SFC rebalance of an adapt-skewed mesh, the leaf imbalance
// must satisfy max ≤ avg + 2·maxTreeLeaves (the snapped band bound divided
// through by the band count).
func TestSFCImbalanceBound(t *testing.T) {
	const p = 4
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	err := par.Run(p, func(c *par.Comm) {
		e := BootstrapWith(c, m, Config{Mode: ModeSFC})
		for epoch := 0; epoch < 5; epoch++ {
			e.Adapt(est, 0.8, 0, 7)
		}
		e.Rebalance(true)
		var maxTree int64
		for r := int32(0); r < int32(m.NumElems()); r++ {
			// Owner maps are replicated and leaf counts travel with the trees,
			// so the max over owned trees + an all-reduce gives the global max.
			if e.Owner[r] == int32(c.Rank()) {
				if n := int64(e.F.LeafCount(r)); n > maxTree {
					maxTree = n
				}
			}
		}
		maxTree, _ = e.Comm.AllReduceMaxSum(maxTree)
		maxLocal, total := e.Comm.AllReduceMaxSum(int64(e.F.NumLeaves()))
		avg := total / int64(p)
		if maxLocal > avg+2*maxTree+1 {
			panic("snapped SFC band exceeds the W/p + 2·maxw bound")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCutChange: for random old and new owner maps, the cut of the new map
// is the cut of the old plus cutChange, and so is its part between groups of
// two ranks (partition.TwoLevelCut) — on the unit dual the sfc strategy cuts
// and on a symmetric weighted one like G. Random maps move neighbouring trees
// between different ranks in one step, so an edge whose two ends both moved
// must be counted exactly once.
func TestCutChange(t *testing.T) {
	const p, cores = 4, 2
	g := graph.FromDual(meshgen.RectTri(6, 6, -1, -1, 1, 1))
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		if trial == 50 {
			for v := int32(0); v < int32(g.N()); v++ {
				for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
					u := g.Adj[k]
					g.EW[k] = int64(1 + (7*min(u, v)+max(u, v))%5)
				}
			}
		}
		old, next := make([]int32, g.N()), make([]int32, g.N())
		for r := range old {
			old[r], next[r] = int32(rng.Intn(p)), old[r]
			if rng.Intn(2) == 0 {
				next[r] = int32(rng.Intn(p))
			}
		}
		d, dInter := cutChange(g, old, next, cores)
		if got, want := partition.EdgeCut(g, old)+d, partition.EdgeCut(g, next); got != want {
			t.Fatalf("trial %d: cut before plus cutChange = %d, EdgeCut after = %d", trial, got, want)
		}
		before, _ := partition.TwoLevelCut(g, old, cores)
		after, _ := partition.TwoLevelCut(g, next, cores)
		if before+dInter != after {
			t.Fatalf("trial %d: inter-group cut before plus cutChange = %d, TwoLevelCut after = %d", trial, before+dInter, after)
		}
	}
}
