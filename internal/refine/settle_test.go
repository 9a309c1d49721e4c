package refine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pared/internal/forest"
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
// while, leaving its private vertices orphaned.
func (c *splicingChain) receive(n int) {
	for _, p := range c.away[:n] {
		c.r.F.InsertTree(p)
		c.r.InsertTree(p.Root)
	}
	c.away = c.away[n:]
}

// TestSettleMatchesCompaction runs one seeded chain of splices twice: once
// settling after every splice, as migration does, and once compacting after
// every splice. Refinement between the splices leaves split marks for Settle
// to drop, and coarsening and departed trees leave orphans; late in the
// chain one step takes every tree back, refines everything and coarsens it
// all away again, so its Settle must compact too. The leaf meshes agree after every step, both
// refiners keep CheckInvariants, the settling table is never due for
// compaction after a Settle, and after one explicit CompactVertices each the
// two hold the same CanonicalLeaves in vertex tables of the same length.
func TestSettleMatchesCompaction(t *testing.T) {
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
	settling, compacting := start(), start()
	rng := rand.New(rand.NewSource(seed))
	compactions, settlesOnly := 0, 0
	for step := 0; step < 48; step++ {
		op := []string{"receive", "send", "refine", "coarsen"}[rng.Intn(4)]
		if step == 40 {
			op = "churn"
		}
		switch op {
		case "receive":
			n := rng.Intn(1 + len(settling.away)/3)
			settling.receive(n)
			compacting.receive(n)
		case "send":
			salt := int32(rng.Intn(2))
			pick := func(root int32) bool { return (root+salt)%2 == 0 }
			settling.send(pick)
			compacting.send(pick)
		case "refine":
			leaves, other := settling.r.F.Leaves(), compacting.r.F.Leaves()
			for i := 0; len(leaves) > 0 && i < 1+len(leaves)/10; i++ {
				k := rng.Intn(len(leaves))
				settling.r.RefineLeaf(leaves[k])
				compacting.r.RefineLeaf(other[k])
			}
			settling.r.Closure()
			compacting.r.Closure()
		case "coarsen":
			salt := rng.Uint64()
			settling.r.Coarsen(purePredicate(settling.r.F, salt, 3))
			compacting.r.Coarsen(purePredicate(compacting.r.F, salt, 3))
		case "churn":
			// Every tree away comes back, every leaf is bisected until the
			// settling table has doubled, and everything is coarsened back to
			// the coarse mesh: almost all of the table is orphans, so this
			// step's Settle must compact.
			both := []*splicingChain{settling, compacting}
			for _, c := range both {
				c.receive(len(c.away))
			}
			for len(settling.r.F.Coords) < 2*settling.r.base {
				for _, c := range both {
					for _, id := range c.r.F.Leaves() {
						c.r.RefineLeaf(id)
					}
					c.r.Closure()
				}
			}
			for _, c := range both {
				c.r.Coarsen(func(forest.NodeID) bool { return true })
			}
		}
		if op == "receive" || op == "send" || op == "churn" {
			if settling.r.Settle() > 0 {
				compactions++
			} else {
				settlesOnly++
			}
			compacting.r.CompactVertices()
			if settling.r.CompactionDue() {
				t.Fatalf("%s seed %d step %d: the vertex table (%d) is still due for compaction after Settle", name, seed, step, len(settling.r.F.Coords))
			}
		}
		where := fmt.Sprintf("%s seed %d step %d (%s)", name, seed, step, op)
		if !reflect.DeepEqual(settling.r.F.CanonicalLeaves(), compacting.r.F.CanonicalLeaves()) {
			t.Fatalf("%s: the settling chain's leaf mesh differs from the compacting chain's", where)
		}
		for _, c := range []*splicingChain{settling, compacting} {
			if err := c.r.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
	}
	if compactions == 0 || settlesOnly == 0 {
		t.Fatalf("%s seed %d: Settle compacted %d times and only settled %d times; the chain must do both", name, seed, compactions, settlesOnly)
	}
	settling.r.CompactVertices()
	compacting.r.CompactVertices() // coarsening may have orphaned vertices since the last splice
	if !reflect.DeepEqual(settling.r.F.CanonicalLeaves(), compacting.r.F.CanonicalLeaves()) {
		t.Fatalf("%s seed %d: after CompactVertices the settling chain's leaf mesh differs", name, seed)
	}
	if err := settling.r.CheckInvariants(); err != nil {
		t.Fatalf("%s seed %d: after CompactVertices: %v", name, seed, err)
	}
	if a, b := len(settling.r.F.Coords), len(compacting.r.F.Coords); a != b {
		t.Fatalf("%s seed %d: compacted vertex tables of %d and %d entries", name, seed, a, b)
	}
}
