package pared

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/meshgen"
	"pared/internal/par"
)

// leafSignature canonicalizes a forest's leaf set: each leaf becomes its
// sorted global vertex IDs, and the leaves are sorted lexicographically. Two
// forests with the same signature describe the same mesh, regardless of how
// the trees were distributed or in which order they were gathered — the
// comparison the identity-under-factorization guarantee is stated in.
func leafSignature(f *forest.Forest) [][4]uint64 {
	var sig [][4]uint64
	f.VisitLeaves(func(id forest.NodeID) {
		n := f.Node(id)
		var key [4]uint64
		for k := range key {
			key[k] = ^uint64(0)
		}
		for k := 0; k < n.Nv(); k++ {
			key[k] = uint64(f.VIDs[n.Verts[k]])
		}
		sort.Slice(key[:], func(i, j int) bool { return key[i] < key[j] })
		sig = append(sig, key)
	})
	sort.Slice(sig, func(i, j int) bool {
		for k := 0; k < 4; k++ {
			if sig[i][k] != sig[j][k] {
				return sig[i][k] < sig[j][k]
			}
		}
		return false
	})
	return sig
}

// runHier drives the adapt/rebalance loop in ModeHier with the given topology
// over p ranks and returns (leaf signature, owner map) captured at rank 0.
// Refinement only (no coarsening): the conformal refinement fixed point is
// partition-independent, which is what makes leaf output comparable across
// factorizations.
func runHier(t *testing.T, p int, topo Topology, steps int) ([][4]uint64, []int32) {
	t.Helper()
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	var sig [][4]uint64
	var owner []int32
	err := par.Run(p, func(c *par.Comm) {
		e := BootstrapWith(c, m, Config{Mode: ModeHier, Topology: topo})
		for step := 0; step < steps; step++ {
			e.Adapt(est, 0.8, 0, 6)
			st := e.Rebalance(true)
			if st.InterCut+st.IntraCut != st.CutAfter {
				panic(fmt.Sprintf("two-level cut %d+%d does not decompose CutAfter %d",
					st.InterCut, st.IntraCut, st.CutAfter))
			}
			if err := e.CheckConsistency(); err != nil {
				panic(err)
			}
		}
		g := e.GatherForest(0)
		if c.Rank() == 0 {
			sig = leafSignature(g)
			owner = append([]int32(nil), e.Owner...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return sig, owner
}

// TestHierFactorizationIdentity checks the tentpole guarantee: the leaf mesh
// the hierarchical engine produces is byte-identical for every node×core
// factorization of the same total rank count. The owner maps legitimately
// differ (the penalty reshapes the phase A objective per factorization), but
// the refined mesh must not.
func TestHierFactorizationIdentity(t *testing.T) {
	const p, steps = 8, 3
	topos := []Topology{
		{Nodes: 1, CoresPerNode: 8},
		{Nodes: 2, CoresPerNode: 4},
		{Nodes: 4, CoresPerNode: 2},
		{Nodes: 8, CoresPerNode: 1},
	}
	ref, _ := runHier(t, p, topos[0], steps)
	if len(ref) == 0 {
		t.Fatal("no leaves captured")
	}
	for _, topo := range topos[1:] {
		sig, _ := runHier(t, p, topo, steps)
		if len(sig) != len(ref) {
			t.Fatalf("topology %dx%d: %d leaves, want %d", topo.Nodes, topo.CoresPerNode, len(sig), len(ref))
		}
		for i := range ref {
			if sig[i] != ref[i] {
				t.Fatalf("topology %dx%d: leaf %d differs from the 1x8 reference", topo.Nodes, topo.CoresPerNode, i)
			}
		}
	}
}

// TestHierByteIdenticalAcrossRuns fixes one factorization and requires the
// owner map itself to be byte-identical across repeated runs and GOMAXPROCS
// settings — scheduling must not leak into the two-phase decision.
func TestHierByteIdenticalAcrossRuns(t *testing.T) {
	const p, steps = 8, 3
	topo := Topology{Nodes: 2, CoresPerNode: 4}
	_, first := runHier(t, p, topo, steps)
	if len(first) == 0 {
		t.Fatal("no owner vector captured")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, prev} {
		runtime.GOMAXPROCS(procs)
		_, again := runHier(t, p, topo, steps)
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("GOMAXPROCS=%d: owner differs at element %d", procs, i)
			}
		}
	}
}

// TestHierTopologyDefaults checks the factorization and penalty defaulting.
func TestHierTopologyDefaults(t *testing.T) {
	cases := []struct {
		p            int
		in           Topology
		nodes, cores int
	}{
		{8, Topology{}, 2, 4},
		{16, Topology{}, 4, 4},
		{6, Topology{}, 2, 3},
		{7, Topology{}, 1, 7},
		{8, Topology{Nodes: 4}, 4, 2},
		{8, Topology{CoresPerNode: 2}, 4, 2},
	}
	for _, tc := range cases {
		got, err := tc.in.Resolve(tc.p)
		if err != nil || got.Nodes != tc.nodes || got.CoresPerNode != tc.cores {
			t.Errorf("Resolve(%d) on %+v = %dx%d (%v), want %dx%d",
				tc.p, tc.in, got.Nodes, got.CoresPerNode, err, tc.nodes, tc.cores)
		}
		if got.InterNodePenalty != 4 {
			t.Errorf("default penalty = %v, want 4", got.InterNodePenalty)
		}
	}
}

// TestHierBadTopologyPanics checks that a topology that does not factor the
// rank count is rejected at configuration time, not discovered mid-collective:
// SetConfig returns the error on every rank and leaves the previous
// configuration in force (the engine goes on rebalancing under it), and
// BootstrapWith, which has no error to return, panics with the same text.
func TestHierBadTopologyPanics(t *testing.T) {
	m := meshgen.RectTri(4, 4, -1, -1, 1, 1)
	bad := Config{Mode: ModeHier, Topology: Topology{Nodes: 3, CoresPerNode: 2}}
	const want = "pared: topology 3 nodes × 2 cores does not factor 4 ranks"
	var rejected atomic.Int32
	err := par.Run(4, func(c *par.Comm) {
		e := BootstrapWith(c, m, Config{Mode: ModeSFC})
		if err := e.SetConfig(bad); err == nil || err.Error() != want {
			panic(fmt.Sprintf("SetConfig(3x2 on 4 ranks) = %v", err))
		}
		rejected.Add(1)
		if e.cfg.strategy != &sfcStrategy || e.cfg.Mode != ModeSFC {
			panic("a rejected config disturbed the previous one")
		}
		if st := e.Rebalance(true); !st.Ran {
			panic("engine stopped rebalancing after a rejected config")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rejected.Load() != 4 {
		t.Fatalf("%d of 4 ranks got the error", rejected.Load())
	}
	err = par.Run(4, func(c *par.Comm) { BootstrapWith(c, m, bad) })
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("BootstrapWith(3x2 on 4 ranks): par.Run returned %v", err)
	}
}

// TestHierSetConfigRebuildsTopology: SetConfig from one hierarchical topology
// to another rebuilds the node split. After a 2x2 decision on 4 ranks, a 4x1
// decision runs four single-core nodes, so every cut edge crosses nodes and
// IntraCut is 0; a kept 2x2 split reported the old grouping's intra-node cut.
func TestHierSetConfigRebuildsTopology(t *testing.T) {
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	four := Topology{Nodes: 4, CoresPerNode: 1}
	err := par.Run(4, func(c *par.Comm) {
		e := BootstrapWith(c, m, Config{Mode: ModeHier, Topology: Topology{Nodes: 2, CoresPerNode: 2}})
		if st := e.Rebalance(true); st.IntraCut == 0 {
			panic("the 2x2 decision cut no intra-node edge: the test shows nothing")
		}
		if err := e.SetConfig(Config{Mode: ModeHier, Topology: four}); err != nil {
			panic(err)
		}
		st := e.Rebalance(true)
		if st.IntraCut != 0 || st.InterCut != st.CutAfter {
			panic(fmt.Sprintf("4x1 decision: inter %d, intra %d of cut %d", st.InterCut, st.IntraCut, st.CutAfter))
		}
		if h := e.hier; h.nodes != 4 || h.cores != 1 || h.node.Size() != 1 {
			panic(fmt.Sprintf("4x1 decision ran on a %dx%d state", h.nodes, h.cores))
		}
		if err := e.CheckConsistency(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHierModeSwitchEpochSequence drives distrefine → hier → distrefine
// through one engine: the owner map must stay valid across both switches, a
// zero-traffic epoch inside each mode must take migrate()'s send-0/recv-0
// skip (refiner pointer identity is the witness), and the whole sequence must
// be byte-identical across GOMAXPROCS settings.
func TestHierModeSwitchEpochSequence(t *testing.T) {
	run := func() []int32 {
		m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
		est := cornerEst(geom.Vec3{X: 1, Y: 1})
		var owner []int32
		err := par.Run(4, func(c *par.Comm) {
			e := BootstrapWith(c, m, Config{DistRefine: true})
			e.Adapt(est, 0.8, 0, 6)
			e.Rebalance(true)
			if err := e.CheckConsistency(); err != nil {
				panic(err)
			}
			// Switch to hier mid-run: the replicated owner map carries over and
			// the first hierarchical epoch must cope with an owner layout no
			// hierarchical phase produced.
			e.SetConfig(Config{Mode: ModeHier, Topology: Topology{Nodes: 2, CoresPerNode: 2}})
			e.Adapt(est, 0.8, 0, 6)
			st := e.Rebalance(true)
			if !st.Ran {
				panic("forced hier rebalance did not run")
			}
			if st.InterCut+st.IntraCut != st.CutAfter {
				panic("hier cut decomposition broken after mode switch")
			}
			if err := e.CheckConsistency(); err != nil {
				panic(err)
			}
			// Repeat the hier epoch on the unchanged mesh: the repartition must
			// keep every tree in place and migrate() must take its local
			// send-0/recv-0 skip without rebuilding the refiner.
			r0, f0 := e.R, e.F
			st = e.Rebalance(true)
			if st.MovedTrees != 0 {
				panic(fmt.Sprintf("no-drift hier rebalance moved %d trees", st.MovedTrees))
			}
			if e.R != r0 || e.F != f0 {
				panic("zero-traffic hier epoch rebuilt the refiner or forest")
			}
			// Switch back: the flat pipeline must accept the hier-shaped owner
			// map as its baseline.
			e.SetConfig(Config{DistRefine: true})
			e.Adapt(est, 0.8, 0, 6)
			e.Rebalance(true)
			if err := e.CheckConsistency(); err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				owner = append([]int32(nil), e.Owner...)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return owner
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("no owner vector captured")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("GOMAXPROCS=%d: owner differs at element %d after mode switches", procs, i)
			}
		}
	}
}
