package pared

import (
	"fmt"
	"testing"

	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/meshgen"
	"pared/internal/par"
)

// TestEveryRegisteredAlgorithm holds each row of the algorithm table to the
// engine's contract on 1, 3 and 4 ranks: three forced adapt/rebalance epochs
// must keep the cross-rank invariants, leave a valid owner map that is
// identical on every rank, and reproduce the serial refinement of the same
// schedule. An algorithm added to the table is covered by being there.
func TestEveryRegisteredAlgorithm(t *testing.T) {
	const epochs = 3
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	want := serialReference(m, est, 0.8, 7, epochs)
	for _, name := range AlgorithmNames() {
		for _, p := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				cfg, err := ConfigByName(name)
				if err != nil {
					t.Fatal(err)
				}
				owners := make([][]int32, p)
				var got [][4]forest.VertexID
				err = par.Run(p, func(c *par.Comm) {
					e := BootstrapWith(c, m, cfg)
					for epoch := 0; epoch < epochs; epoch++ {
						e.Adapt(est, 0.8, 0, 7)
						if st := e.Rebalance(true); !st.Ran {
							panic("forced rebalance did not run")
						}
						if err := e.CheckConsistency(); err != nil {
							panic(err)
						}
					}
					owners[c.Rank()] = e.Owner
					if f := e.GatherForest(0); c.Rank() == 0 {
						got = f.CanonicalLeaves()
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for r, owner := range owners {
					if len(owner) != m.NumElems() {
						t.Fatalf("rank %d: owner map has %d entries for %d trees", r, len(owner), m.NumElems())
					}
					for i, o := range owner {
						if o < 0 || int(o) >= p {
							t.Fatalf("rank %d: owner[%d] = %d outside [0,%d)", r, i, o, p)
						}
						if o != owners[0][i] {
							t.Fatalf("owner[%d] = %d on rank %d, %d on rank 0", i, o, r, owners[0][i])
						}
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%d leaves, serial reference %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("leaf %d differs from the serial reference", i)
					}
				}
			})
		}
	}
	if _, err := ConfigByName("scratch"); err == nil {
		t.Error("an unregistered name resolved to a config")
	}
}
