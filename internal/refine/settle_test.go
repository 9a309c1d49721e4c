package refine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/mesh"
)

// splicingChain is one refiner with the trees it has sent away, in the order
// they left.
type splicingChain struct {
	r    *Refiner
	away []*forest.TreePayload
}

// send moves the held trees pick selects out of the forest.
func (c *splicingChain) send(pick func(root int32) bool) {
	for _, root := range c.r.F.Roots() {
		if pick(root) {
			c.away = append(c.away, c.r.F.ExtractTree(root))
			c.r.RemoveTree(root)
			c.r.F.RemoveTree(root)
		}
	}
}

// receive splices the n trees that have been away longest back in, so the
// trees the chain never held come first and a tree that left stays away a
// while, its private vertex slots taken by others meanwhile.
func (c *splicingChain) receive(n int) {
	for _, p := range c.away[:n] {
		c.r.F.InsertTree(p)
		c.r.InsertTree(p.Root)
	}
	c.away = c.away[n:]
}

// TestSettleMatchesRebuild runs one seeded chain of splices twice: once
// settling after every splice, as migration does, and once throwing the
// refiner away after every splice and building a fresh one from the forest.
// Refinement between the splices leaves split marks for RemoveTree and Settle
// to drop, and coarsening and departed trees free vertex slots that arriving
// trees and new midpoints take again; late in the chain one step takes every
// tree back, refines everything twice and coarsens it all away again. The
// leaf meshes agree after every step and both refiners keep CheckInvariants —
// the settling one also right after a send, before it settles, where no
// record may still name a slot the departed trees freed.
func TestSettleMatchesRebuild(t *testing.T) {
	for name, m := range coarsenMeshes() {
		for seed := int64(1); seed <= 3; seed++ {
			settleChain(t, name, m, seed)
		}
	}
}

func settleChain(t *testing.T, name string, m *mesh.Mesh, seed int64) {
	donor := refinedForest(t, m, seed).F
	start := func() *splicingChain {
		f, c := forest.New(m.Dim), &splicingChain{}
		for _, root := range donor.Roots() {
			if p := donor.ExtractTree(root); root%8 == 0 {
				f.InsertTree(p)
			} else {
				c.away = append(c.away, p)
			}
		}
		c.r = NewRefiner(f)
		return c
	}
	settling, rebuilding := start(), start()
	both := []*splicingChain{settling, rebuilding}
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < 48; step++ {
		op := []string{"receive", "send", "refine", "coarsen"}[rng.Intn(4)]
		if step == 40 {
			op = "churn"
		}
		where := fmt.Sprintf("%s seed %d step %d (%s)", name, seed, step, op)
		switch op {
		case "receive":
			n := rng.Intn(1 + len(settling.away)/3)
			settling.receive(n)
			rebuilding.receive(n)
		case "send":
			salt := int32(rng.Intn(2))
			pick := func(root int32) bool { return (root+salt)%2 == 0 }
			settling.send(pick)
			rebuilding.send(pick)
			if err := settling.r.CheckInvariants(); err != nil {
				t.Fatalf("%s: after the send, before Settle: %v", where, err)
			}
		case "refine":
			leaves, other := settling.r.F.Leaves(), rebuilding.r.F.Leaves()
			for i := 0; len(leaves) > 0 && i < 1+len(leaves)/10; i++ {
				k := rng.Intn(len(leaves))
				settling.r.RefineLeaf(leaves[k])
				rebuilding.r.RefineLeaf(other[k])
			}
			settling.r.Closure()
			rebuilding.r.Closure()
		case "coarsen":
			salt := rng.Uint64()
			settling.r.Coarsen(purePredicate(settling.r.F, salt, 3))
			rebuilding.r.Coarsen(purePredicate(rebuilding.r.F, salt, 3))
		case "churn":
			for _, c := range both {
				c.receive(len(c.away))
				for range 2 {
					for _, id := range c.r.F.Leaves() {
						c.r.RefineLeaf(id)
					}
					c.r.Closure()
				}
				c.r.Coarsen(func(forest.NodeID) bool { return true })
			}
		}
		if op == "receive" || op == "send" || op == "churn" {
			settling.r.Settle()
			rebuilding.r = NewRefiner(rebuilding.r.F)
		}
		if !reflect.DeepEqual(settling.r.F.CanonicalLeaves(), rebuilding.r.F.CanonicalLeaves()) {
			t.Fatalf("%s: the settling chain's leaf mesh differs from the rebuilding chain's", where)
		}
		for _, c := range both {
			if err := c.r.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
	}
}

// bisectedTriangle returns a refiner over one triangle bisected once, at its
// longest edge {0, 1}, with midpoint 3.
func bisectedTriangle(t *testing.T) *Refiner {
	t.Helper()
	r := NewRefiner(forest.FromMesh(&mesh.Mesh{
		Dim:   mesh.D2,
		Verts: []geom.Vec3{{X: 0}, {X: 2}, {X: 1, Y: 0.5}},
		Elems: []mesh.Element{mesh.Tri(0, 1, 2)},
	}))
	r.RefineLeaf(r.F.Root(0))
	if r.Closure() != 1 || r.F.Node(r.F.Root(0)).RefEdge != [2]int32{0, 1} || r.F.Node(r.F.Root(0)).MidV != 3 {
		t.Fatal("want one bisection at edge {0, 1} with midpoint 3")
	}
	return r
}

// TestRemoveTreeDropsItsMarks sends a refined tree away and brings the same
// payload straight back, with no Settle in between: the returning tree takes
// the vertex slots it freed in another order, so one of its leaf edges lands
// on the slot pair {0, 1} of the edge it had split. Its marks left with it,
// so the refiner holds its invariants throughout; a mark kept past RemoveTree
// would name freed slots, and then a split edge of the returning leaf.
func TestRemoveTreeDropsItsMarks(t *testing.T) {
	r := bisectedTriangle(t)
	f := r.F
	p := f.ExtractTree(0)
	r.RemoveTree(0)
	f.RemoveTree(0)
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("after RemoveTree: %v", err)
	}
	f.InsertTree(p)
	r.InsertTree(0)
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("after the tree came back: %v", err)
	}
	// The test shows something only if a leaf edge took the split edge's
	// slot pair.
	if e := r.edges.find(0, 1); e == nil || len(e.leaves) == 0 {
		t.Fatal("no returning leaf has an edge on slots {0, 1}")
	}
	r.Settle()
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("after Settle: %v", err)
	}
}
