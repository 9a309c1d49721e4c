package pared

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"pared/internal/geom"
	"pared/internal/graph"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/partition"
	"pared/internal/partition/mlkl"
)

func TestEngineWithMLKLRepartitioner(t *testing.T) {
	// The engine accepts any Repartitioner; drive it with plain ML-KL and
	// check the pipeline still works (the paper's Figure 8 compares exactly
	// this: standard partitioners inside the same system).
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	err := par.Run(4, func(c *par.Comm) {
		e := Bootstrap(c, m)
		e.SetConfig(Config{Repartition: func(g *graph.Graph, old []int32, np int) []int32 {
			newp := mlkl.Partition(g, np, mlkl.Config{Seed: 5})
			// Standard practice: remap labels to minimize migration.
			return partition.MinMigrationRelabel(g.VW, old, newp, np)
		}})
		for i := 0; i < 3; i++ {
			e.Adapt(cornerEst(geom.Vec3{X: 1, Y: 1}), 0.7, 0, 9)
		}
		st := e.Rebalance(true)
		if !st.Ran {
			panic("rebalance skipped")
		}
		if st.Imbalance > 0.2 {
			panic("ML-KL repartition left large imbalance")
		}
		if err := e.CheckConsistency(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEngineImbalanceTrigger(t *testing.T) {
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	err := par.Run(4, func(c *par.Comm) {
		e := Bootstrap(c, m)
		e.SetConfig(Config{ImbalanceTrigger: 1e9}) // never trigger
		for i := 0; i < 3; i++ {
			e.Adapt(cornerEst(geom.Vec3{X: 1, Y: 1}), 0.7, 0, 9)
		}
		if st := e.Rebalance(false); st.Ran {
			panic("rebalance ran despite enormous trigger")
		}
		e.SetConfig(Config{ImbalanceTrigger: 0.01}) // trigger easily
		if st := e.Rebalance(false); !st.Ran {
			panic("rebalance skipped despite tiny trigger")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEngineRepeatedMigrationStable(t *testing.T) {
	// Force rebalance repeatedly; trees must keep moving consistently with
	// no ownership corruption and the forest must stay conforming.
	m := meshgen.RectTri(6, 6, -1, -1, 1, 1)
	err := par.Run(3, func(c *par.Comm) {
		e := Bootstrap(c, m)
		for i := 0; i < 5; i++ {
			e.Adapt(cornerEst(geom.Vec3{X: float64(i%2)*2 - 1, Y: 1}), 0.7, 0, 10)
			e.Rebalance(true)
			if err := e.CheckConsistency(); err != nil {
				panic(err)
			}
		}
		g := e.GatherForest(0)
		if c.Rank() == 0 {
			lm := g.LeafMesh().Mesh
			if err := lm.CheckConforming(); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceEmitsPhases(t *testing.T) {
	m := meshgen.RectTri(6, 6, -1, -1, 1, 1)
	var mu sync.Mutex
	var lines []string
	err := par.Run(3, func(c *par.Comm) {
		e := Bootstrap(c, m)
		e.SetConfig(Config{Trace: func(s string) {
			mu.Lock()
			lines = append(lines, s)
			mu.Unlock()
		}})
		e.Adapt(cornerEst(geom.Vec3{X: 1, Y: 1}), 0.7, 0, 8)
		e.Rebalance(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	var p0, p1, p3 bool
	for _, l := range lines {
		if strings.Contains(l, "P0 adapt") {
			p0 = true
		}
		if strings.Contains(l, "P1 weights") {
			p1 = true
		}
		if strings.Contains(l, "P3 repartition") {
			p3 = true
		}
	}
	if !p0 || !p1 || !p3 {
		t.Errorf("missing trace phases: P0=%v P1=%v P3=%v in %d lines", p0, p1, p3, len(lines))
	}
}

// TestNewRejectsOwnerOutsideRanks: an owner entry that names no rank would
// leave its tree interned nowhere — a mesh with holes, noticed only by the
// first rebalance that writes weight records and never under ModeSFC. An
// owner map of the wrong length names no rank for some element either. Every
// rank must refuse the map alike, with an error and no engine.
func TestNewRejectsOwnerOutsideRanks(t *testing.T) {
	m := meshgen.RectTri(4, 4, -1, -1, 1, 1)
	owner := make([]int32, m.NumElems())
	for i := range owner {
		owner[i] = int32(i % 2)
	}
	outside := append([]int32(nil), owner...)
	outside[5], outside[6] = 7, -1
	for _, tc := range []struct {
		owner []int32
		want  string
	}{
		{outside, "pared: owner[5] = 7, outside [0, 2)"},
		{owner[:len(owner)-1], fmt.Sprintf("pared: owner map has %d entries for %d coarse elements", len(owner)-1, len(owner))},
	} {
		errs := make([]error, 2)
		if err := par.Run(2, func(c *par.Comm) {
			var e *Engine
			e, errs[c.Rank()] = New(c, m, tc.owner)
			if e != nil {
				t.Errorf("rank %d: New returned an engine with its error", c.Rank())
			}
		}); err != nil {
			t.Fatalf("par.Run: %v", err)
		}
		for r, err := range errs {
			if err == nil || err.Error() != tc.want {
				t.Errorf("rank %d: New returned %v, want %q", r, err, tc.want)
			}
		}
	}
}
