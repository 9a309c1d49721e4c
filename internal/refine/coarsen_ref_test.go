package refine

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pared/internal/forest"
	"pared/internal/mesh"
	"pared/internal/meshgen"
)

// refCoarsen and refCoarsenRound are the coarsening pass Coarsen replaced,
// kept verbatim as the oracle: every cascade round re-sweeps all leaves twice
// and re-asks the predicate. TestCoarsenMatchesReference holds the
// candidate-driven pass to its results.
func (r *Refiner) refCoarsen(wantCoarsen func(id forest.NodeID) bool) int {
	total := 0
	for {
		removed := r.refCoarsenRound(wantCoarsen)
		if removed == 0 {
			return total
		}
		total += removed
	}
}

func (r *Refiner) refCoarsenRound(wantCoarsen func(id forest.NodeID) bool) int {
	f := r.F
	// Collect candidate parents: both kids are approved leaves.
	type group struct {
		parents []forest.NodeID
	}
	groups := make(map[int32]*group) // midpoint local vertex -> group
	f.VisitLeaves(func(id forest.NodeID) {
		n := f.Node(id)
		if n.Parent == forest.NoNode {
			return
		}
		p := f.Node(n.Parent)
		// Visit each parent once, via its first child.
		if p.Kids[0] != id {
			return
		}
		k1 := f.Node(p.Kids[1])
		if !k1.IsLeaf() {
			return
		}
		if !wantCoarsen(p.Kids[0]) || !wantCoarsen(p.Kids[1]) {
			return
		}
		g := groups[p.MidV]
		if g == nil {
			g = &group{}
			groups[p.MidV] = g
		}
		g.parents = append(g.parents, n.Parent)
	})
	if len(groups) == 0 {
		return 0
	}
	// Count, among all leaves, the uses of each candidate midpoint vertex.
	usage := make(map[int32]int, len(groups))
	for m := range groups {
		usage[m] = 0
	}
	f.VisitLeaves(func(id forest.NodeID) {
		n := f.Node(id)
		nv := n.Nv()
		for i := 0; i < nv; i++ {
			if _, ok := usage[n.Verts[i]]; ok {
				usage[n.Verts[i]]++
			}
		}
	})
	// A midpoint is removable iff every leaf using it is a candidate child
	// (each candidate parent contributes exactly two such leaves).
	removed := 0
	for m, g := range groups {
		if usage[m] != 2*len(g.parents) {
			continue
		}
		for _, pid := range g.parents {
			r.unbisect(pid)
			removed++
		}
	}
	return removed
}

// purePredicate approves a node from a hash of its sorted global vertex IDs
// and salt alone, with probability about frac/4: the same node gets the same
// answer in any forest, in any round, however often it is asked.
func purePredicate(f *forest.Forest, salt uint64, frac uint64) func(forest.NodeID) bool {
	return func(id forest.NodeID) bool {
		n := f.Node(id)
		var ids []forest.VertexID
		for _, v := range n.Verts[:n.Nv()] {
			ids = append(ids, f.VIDs[v])
		}
		slices.Sort(ids)
		h := salt
		for _, v := range ids {
			h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
			h ^= h >> 29
		}
		return h%4 < frac
	}
}

// refinedForest builds a randomly refined forest of depth >= 6 from seed.
func refinedForest(t *testing.T, m *mesh.Mesh, seed int64) *Refiner {
	t.Helper()
	f := forest.FromMesh(m)
	r := NewRefiner(f)
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 6 || f.MaxLevel() < 6; round++ {
		leaves := f.Leaves()
		// Half the picks go to the deepest third of the leaves, so depth grows.
		slices.SortStableFunc(leaves, func(a, b forest.NodeID) int { return int(f.Node(b).Level - f.Node(a).Level) })
		for i := 0; i < 1+len(leaves)/12; i++ {
			pool := leaves
			if i%2 == 0 {
				pool = leaves[:1+len(leaves)/3]
			}
			r.RefineLeaf(pool[rng.Intn(len(pool))])
		}
		r.Closure()
	}
	return r
}

func coarsenMeshes() map[string]*mesh.Mesh {
	return map[string]*mesh.Mesh{
		"2d": meshgen.RectTri(4, 4, -1, -1, 1, 1),
		"3d": meshgen.BoxTet(2, 2, 2, 0, 0, 0, 1, 1, 1),
	}
}

// TestCoarsenMatchesReference: on identical forests and a pure predicate the
// candidate-driven Coarsen and the round-by-round reference un-bisect the same
// number of nodes and leave the same leaf mesh, and Coarsen asks about each
// node at most once.
func TestCoarsenMatchesReference(t *testing.T) {
	for name, m := range coarsenMeshes() {
		for seed := int64(1); seed <= 3; seed++ {
			// frac 4 approves everything (the full cascade back to the coarse
			// mesh, one round per level); 3 and 2 leave groups blocked for good.
			for frac := uint64(2); frac <= 4; frac++ {
				got, ref := refinedForest(t, m, seed), refinedForest(t, m, seed)
				if !reflect.DeepEqual(got.F.CanonicalLeaves(), ref.F.CanonicalLeaves()) {
					t.Fatalf("%s seed %d: the two builds of one refinement differ", name, seed)
				}
				before := got.F.NumLeaves()

				rounds := 0
				wantN := 0
				for {
					n := ref.refCoarsenRound(purePredicate(ref.F, uint64(seed), frac))
					if n == 0 {
						break
					}
					wantN += n
					rounds++
				}
				if frac == 4 && rounds < 3 {
					t.Fatalf("%s seed %d: full coarsening took %d reference rounds, want a cascade of >= 3", name, seed, rounds)
				}

				asked := make(map[forest.NodeID]int)
				pred := purePredicate(got.F, uint64(seed), frac)
				gotN := got.Coarsen(func(id forest.NodeID) bool {
					asked[id]++
					return pred(id)
				})
				if gotN != wantN {
					t.Errorf("%s seed %d frac %d: un-bisected %d nodes, reference %d", name, seed, frac, gotN, wantN)
				}
				if before-got.F.NumLeaves() != gotN {
					t.Errorf("%s seed %d frac %d: leaf count fell by %d, returned %d", name, seed, frac, before-got.F.NumLeaves(), gotN)
				}
				if !reflect.DeepEqual(got.F.CanonicalLeaves(), ref.F.CanonicalLeaves()) {
					t.Errorf("%s seed %d frac %d: leaf mesh differs from the reference", name, seed, frac)
				}
				if err := got.CheckInvariants(); err != nil {
					t.Errorf("%s seed %d frac %d: %v", name, seed, frac, err)
				}
				checkMesh(t, got.F)
				for id, n := range asked {
					if n > 1 {
						t.Errorf("%s seed %d frac %d: predicate asked %d times about node %d", name, seed, frac, n, id)
					}
				}
				if frac == 4 && got.F.NumLeaves() != m.NumElems() {
					t.Errorf("%s seed %d: approve-all left %d leaves, coarse mesh has %d", name, seed, got.F.NumLeaves(), m.NumElems())
				}
			}
		}
	}
}

// TestCoarsenBlockedGroupUnblocksLater pins the round structure on the
// smallest case that has one: two triangles split at their common diagonal
// (a group of two parents around the midpoint m), then one of the four
// children split once more at its boundary edge. With everything approved,
// m's group is listed from the start — the untouched triangle's children are
// approved leaves — but the two grandchildren use m too, so it is blocked in
// round 1, which can only undo the boundary split; that restores the child,
// completes the second pair around m, and round 2 removes the whole group.
func TestCoarsenBlockedGroupUnblocksLater(t *testing.T) {
	build := func() *Refiner {
		f := forest.FromMesh(meshgen.RectTri(1, 1, 0, 0, 1, 1))
		r := NewRefiner(f)
		r.RefineLeaf(f.Root(0))
		if n := r.Closure(); n != 2 {
			t.Fatalf("diagonal split bisected %d, want 2", n)
		}
		r.RefineLeaf(f.Node(f.Root(0)).Kids[0])
		if n := r.Closure(); n != 1 {
			t.Fatalf("boundary split bisected %d, want 1 (no propagation)", n)
		}
		return r
	}
	all := func(forest.NodeID) bool { return true }

	ref := build()
	var perRound []int
	for {
		n := ref.refCoarsenRound(all)
		if n == 0 {
			break
		}
		perRound = append(perRound, n)
	}
	if !reflect.DeepEqual(perRound, []int{1, 2}) {
		t.Fatalf("reference rounds removed %v, want [1 2]: the scenario no longer blocks the diagonal group in round 1", perRound)
	}

	got := build()
	f := got.F
	lastKids := f.Node(f.Root(1)).Kids
	asked := 0
	if n := got.Coarsen(func(forest.NodeID) bool { asked++; return true }); n != 3 {
		t.Errorf("un-bisected %d nodes, want 3", n)
	}
	// Three pairs are ever examined: six nodes, each asked about once.
	if asked != 6 {
		t.Errorf("predicate called %d times, want 6", asked)
	}
	if got.F.NumLeaves() != 2 || !reflect.DeepEqual(got.F.CanonicalLeaves(), ref.F.CanonicalLeaves()) {
		t.Errorf("left %d leaves, want the 2 coarse triangles", got.F.NumLeaves())
	}
	if err := got.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Which round a group goes in shows in the free list, and only there (the
	// cascade reaches the same mesh in any order). Round 2 un-bisects the
	// diagonal group in ascending node order, so the slots freed last, and
	// handed out first, are those of tree 1's children. Taking the group's
	// first-listed parent in round 1, from counts already updated, frees them
	// before tree 0's.
	a, b := f.LongestEdge(f.Root(0))
	mid := f.InternVertex(forest.MidID(f.VIDs[a], f.VIDs[b]), f.Coords[a].Mid(f.Coords[b]))
	if k0, k1 := f.Bisect(f.Root(0), a, b, mid); k0 != lastKids[1] || k1 != lastKids[0] {
		t.Errorf("first slots reused are %d, %d; want %d, %d, the children un-bisected last", k0, k1, lastKids[1], lastKids[0])
	}
}

// TestCoarsenNodeSlotsRunIndependent: the order of un-bisection decides the
// free list and with it every NodeID handed out afterwards, so one
// refine/coarsen/refine sequence run twice must produce the identical node
// table, not merely the identical mesh.
func TestCoarsenNodeSlotsRunIndependent(t *testing.T) {
	for name, m := range coarsenMeshes() {
		run := func() []forest.Node {
			r := refinedForest(t, m, 5)
			r.Coarsen(purePredicate(r.F, 11, 3))
			rng := rand.New(rand.NewSource(17))
			leaves := r.F.Leaves()
			for i := 0; i < 1+len(leaves)/8; i++ {
				r.RefineLeaf(leaves[rng.Intn(len(leaves))])
			}
			r.Closure()
			return r.F.Nodes
		}
		a := run()
		for i := 0; i < 3; i++ {
			if b := run(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: run %d produced a different node table", name, i+2)
			}
		}
	}
}
