package pared

import (
	"fmt"
	"runtime"
	"testing"

	"pared/internal/core"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/graph"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/partition"
)

// epochRecord captures everything an epoch's rebalance decided, for exact
// comparison between pipeline variants.
type epochRecord struct {
	Ran                  bool
	Owner                []int32
	CutBefore, CutAfter  int64
	MovedTrees, MovedEls int64
}

// runChain drives a 10-epoch adapt/rebalance chain on p ranks under cfg and
// returns rank 0's per-epoch records plus the final canonical leaf list.
func runChain(t *testing.T, p int, cfg Config) ([]epochRecord, [][4]forest.VertexID) {
	t.Helper()
	return runChainOracle(t, p, cfg, nil)
}

// runChainOracle is runChain with the from-scratch reference computed next to
// every epoch when ref is set: before each Rebalance the forest is gathered
// on rank 0, G is rebuilt from its leaf mesh (graph.CoarseDual — no weight
// records, no cached topology) and repartitioned by core.Repartition under
// *ref. Every epoch that rebalanced must agree with that reference on the
// owner map and on both cuts; at least one must.
func runChainOracle(t *testing.T, p int, cfg Config, ref *core.Config) ([]epochRecord, [][4]forest.VertexID) {
	t.Helper()
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	var recs []epochRecord
	var leaves [][4]forest.VertexID
	checked := 0
	err := par.Run(p, func(c *par.Comm) {
		e := Bootstrap(c, m)
		if err := e.SetConfig(cfg); err != nil {
			panic(err)
		}
		for epoch := 0; epoch < 10; epoch++ {
			e.Adapt(est, 0.8, 0, 7)
			var want []int32
			var wantBefore, wantAfter int64
			if ref != nil {
				f := e.GatherForest(0)
				if c.Rank() == 0 {
					leaf := f.LeafMesh()
					g := graph.CoarseDual(m.NumElems(), leaf.Mesh, leaf.LeafRoot)
					want = core.Repartition(g, e.Owner, p, *ref)
					wantBefore = partition.EdgeCut(g, e.Owner)
					wantAfter = partition.EdgeCut(g, want)
				}
			}
			st := e.Rebalance(epoch%3 != 2) // mix forced and trigger-gated epochs
			if want != nil && st.Ran {
				checked++
				if st.CutBefore != wantBefore || st.CutAfter != wantAfter {
					panic(fmt.Sprintf("epoch %d: cuts %d->%d, from-scratch reference %d->%d",
						epoch, st.CutBefore, st.CutAfter, wantBefore, wantAfter))
				}
				for i := range want {
					if e.Owner[i] != want[i] {
						panic(fmt.Sprintf("epoch %d: owner[%d] = %d, from-scratch reference %d", epoch, i, e.Owner[i], want[i]))
					}
				}
			}
			if err := e.CheckConsistency(); err != nil {
				panic(err)
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
	if ref != nil && checked == 0 {
		t.Fatal("no epoch actually rebalanced; the comparison proved nothing")
	}
	return recs, leaves
}

func compareChains(t *testing.T, label string, a, b []epochRecord) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d epochs", label, len(a), len(b))
	}
	for ep := range a {
		x, y := a[ep], b[ep]
		if x.Ran != y.Ran || x.CutBefore != y.CutBefore || x.CutAfter != y.CutAfter ||
			x.MovedTrees != y.MovedTrees || x.MovedEls != y.MovedEls {
			t.Fatalf("%s: epoch %d stats diverge: %+v vs %+v", label, ep, x, y)
		}
		for i := range x.Owner {
			if x.Owner[i] != y.Owner[i] {
				t.Fatalf("%s: epoch %d owner[%d] = %d vs %d", label, ep, i, x.Owner[i], y.Owner[i])
			}
		}
	}
}

// TestIncrementalMatchesScratchDriftAlways is the equivalence contract of the
// incremental pipeline under the default configuration: a 10-epoch
// adapt/rebalance chain through the weight-record, overwritten-G, owner-delta
// path must land, every single epoch, on the owner map and cut values of the
// from-scratch reference — G rebuilt from the gathered leaf mesh.
func TestIncrementalMatchesScratchDriftAlways(t *testing.T) {
	runChainOracle(t, 4, Config{}, &core.Config{})
}

// TestIncrementalDriftNeverDeterministic: the default pipeline must be
// byte-identical across repeated runs and GOMAXPROCS settings, keep every
// cross-rank invariant, and reproduce the serial reference mesh.
func TestIncrementalDriftNeverDeterministic(t *testing.T) {
	const p = 4
	base, baseLeaves := runChain(t, p, Config{})
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		again, leaves := runChain(t, p, Config{})
		runtime.GOMAXPROCS(old)
		compareChains(t, "rerun", base, again)
		if len(leaves) != len(baseLeaves) {
			t.Fatalf("GOMAXPROCS=%d: leaf count changed", procs)
		}
	}
	// Adaptation is partition-independent, so the distributed mesh must
	// equal the serial refinement of the same schedule.
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

// TestRebalanceCheapSkipDoesNoWeightWork proves satellite (b): a skipped
// Rebalance(force=false) must stop at the fused imbalance probe. The counter
// records the skip, and gCache still being nil is white-box proof that no
// rank's weight records reached a holder of G: P1 and P2 never ran. (The
// forced epoch then builds it on rank 0, the one holder under the default
// coordinator strategy.)
func TestRebalanceCheapSkipDoesNoWeightWork(t *testing.T) {
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	err := par.Run(4, func(c *par.Comm) {
		e := Bootstrap(c, m)
		for i := 0; i < 3; i++ {
			// The bootstrap partition of a uniform mesh is balanced: every
			// trigger-gated call must take the cheap skip.
			st := e.Rebalance(false)
			if st.Ran {
				panic("balanced mesh still rebalanced")
			}
		}
		if e.CheapSkips != 3 {
			panic("skip counter did not record the cheap skips")
		}
		if e.gCache != nil {
			panic("skip path touched the weight-report machinery")
		}
		st := e.Rebalance(true)
		if !st.Ran || (c.Rank() == 0 && e.gCache == nil) {
			panic("forced rebalance should run the full pipeline")
		}
		if e.CheapSkips != 3 {
			panic("forced rebalance miscounted as a skip")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
