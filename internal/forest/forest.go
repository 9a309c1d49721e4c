// Package forest implements PARED's hierarchical data structure of nested
// meshes: a forest of refinement history trees, one tree per element of the
// initial coarse mesh M⁰.
//
// When an element is refined it is not destroyed; it becomes an interior node
// whose two children are the bisection halves. The leaves of all trees form
// the current most-refined mesh Mᵗ. Coarsening removes the two children of a
// node, making it a leaf again, so M⁰ is the coarsest reachable mesh.
//
// The forest supports sparse root ownership: a rank in the distributed engine
// holds only the trees of the coarse elements it owns, while root IDs remain
// global. Vertices carry deterministic 64-bit global IDs (see VertexID) so
// independently refined replicas agree on vertex identity without
// communication.
package forest

import (
	"fmt"
	"slices"

	"pared/internal/geom"
	"pared/internal/index"
	"pared/internal/mesh"
)

// VertexID is a globally unique, deterministic vertex identifier. Vertices of
// the initial mesh use their index; the midpoint of an edge gets an ID that
// is a pure function of its endpoints' IDs, so every processor that splits
// the same edge derives the same ID with no coordination.
type VertexID uint64

// MidID returns the deterministic ID of the midpoint of the edge {a, b}.
// It is symmetric in its arguments. The mixing function is SplitMix64-style;
// the collision probability for a mesh with 10⁶ vertices is below 3·10⁻⁸
// (birthday bound), and collisions are detected at interning time.
func MidID(a, b VertexID) VertexID {
	if a > b {
		a, b = b, a
	}
	x := uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	// Avoid colliding with initial-mesh IDs, which are small integers.
	return VertexID(x | 1<<63)
}

// NodeID indexes a node within a Forest. The special value NoNode (-1) means
// "no node".
type NodeID int32

// NoNode is the nil NodeID.
const NoNode NodeID = -1

// Node is one element in a refinement history tree.
type Node struct {
	// Verts are local vertex indices into the forest's vertex table.
	// Triangles set Verts[3] = -1.
	Verts [4]int32
	// Parent is the node this one was bisected from, or NoNode for a root.
	Parent NodeID
	// Kids are the two bisection halves, or {NoNode, NoNode} for a leaf.
	Kids [2]NodeID
	// Root is the global coarse-element index of the tree containing this node.
	Root int32
	// Level is the refinement depth (roots are level 0).
	Level int32
	// RefEdge holds the local vertex indices of the edge this node was
	// bisected at (meaningful only for interior nodes).
	RefEdge [2]int32
	// MidV is the local index of the midpoint vertex created when this node
	// was bisected, or -1 for leaves.
	MidV int32
	// Dead marks a node slot freed by coarsening.
	Dead bool
}

// IsLeaf reports whether the node is currently unrefined.
func (n *Node) IsLeaf() bool { return n.Kids[0] == NoNode }

// Nv returns the number of vertices of the node's simplex.
func (n *Node) Nv() int {
	if n.Verts[3] < 0 {
		return 3
	}
	return 4
}

// Forest is a forest of refinement history trees over a shared vertex table.
//
// A vertex slot lives exactly as long as some live node names it in Verts:
// its use count rises when a node is allocated and falls when Unbisect or
// RemoveTree kills one, and at zero the slot is freed, its VertexID leaves
// the index, and InternVertex hands it out again. So the table never holds
// an orphan and is never renumbered; every vertex an interior node names
// (RefEdge, MidV) also lies in the Verts of a live node.
type Forest struct {
	// Dim is the mesh dimension.
	Dim mesh.Dim
	// Coords holds vertex coordinates, indexed by local vertex index; a free
	// slot keeps the coordinates of the vertex that last held it.
	Coords []geom.Vec3
	// VIDs holds the global VertexID of each local vertex, with the same
	// proviso for free slots.
	VIDs []VertexID
	// Nodes holds all tree nodes; slots of coarsened nodes are reused.
	Nodes []Node
	// Field is an optional nodal field, one value per vertex slot (the last
	// solution of the distributed solve), or nil: it stays nil until something
	// sets it, and then grows with the vertex table. A slot InternVertex hands
	// out starts at 0, a midpoint made by InternMidpoint at the mean of its
	// edge's endpoints, and a slot InsertTree fills at the payload's value; a
	// free slot keeps the value of the vertex that last held it.
	Field []float64

	vidx  index.Map // global ID -> local index, for live vertex slots only
	uses  []int32   // per vertex slot, the live nodes whose Verts name it
	freeV []int32   // free vertex slots, taken last-in first-out
	// roots lists the held trees in ascending root order, the order every leaf
	// sweep walks. AddRoot, InsertTree and RemoveTree keep it sorted in place,
	// so reading it never sorts and never allocates.
	roots []int32
	// trees is the dense per-root index: trees[r] holds tree r's root node and
	// leaf count, or NoNode and 0 if the tree is not held. It is one entry past
	// the largest root ever held, so Root and LeafCount are one index.
	trees   []treeSlot
	free    []NodeID // reusable dead slots
	nLeaves int
	// vnum is ExtractTree's numbering scratch: per vertex slot, its index in
	// the payload being built, or -1. It is all -1 between calls and as long
	// as the vertex table was at the last extraction.
	vnum []int32
	// out is the payload AppendTree extracts into, tree after tree.
	out TreePayload
	// seen and pverts are InsertTree's scratch: the vertex IDs of the payload
	// being checked, each to its payload index; and pverts[v+1], the local
	// slot of payload vertex v, after pverts[0] = -1 for the word -1.
	seen   index.Map
	pverts []int32
	// marked and markedRoots are SortLeaves' scratch: per node slot, whether
	// it lies on a marked path (all false between calls), and the roots
	// reached.
	marked      []bool
	markedRoots []int32
}

// treeSlot is the dense index's entry for one tree: its root node, and its leaf
// count under changedBit, which Bisect and Unbisect set (a tree enters clean).
type treeSlot struct {
	node   NodeID
	leaves uint32
}

const changedBit = 1 << 31

// New creates an empty forest of the given dimension.
func New(dim mesh.Dim) *Forest {
	return &Forest{Dim: dim}
}

// FromMesh builds a forest whose roots are the elements of the initial coarse
// mesh m. Vertex i of m receives VertexID(i) and local index i; a vertex no
// element uses is freed at once.
func FromMesh(m *mesh.Mesh) *Forest {
	f := New(m.Dim)
	for i, c := range m.Verts {
		f.InternVertex(VertexID(i), c)
	}
	for e, el := range m.Elems {
		f.AddRoot(int32(e), el.V)
	}
	for v, u := range f.uses {
		if u == 0 {
			f.freeVertex(int32(v))
		}
	}
	return f
}

// InternVertex returns the local index for the global vertex id, adding it
// with the given coordinates if absent, in a free slot if there is one. The
// new vertex lives once a node names it (see Forest). It panics on an ID
// collision (same ID, different coordinates), which the deterministic
// midpoint naming makes astronomically unlikely.
func (f *Forest) InternVertex(id VertexID, c geom.Vec3) int32 {
	li, _ := f.intern(id, c)
	return li
}

// InternMidpoint returns the local index of the midpoint of the edge between
// local vertices a and b, interning it as InternVertex does under MidID's
// name. A new midpoint's field value is the mean of the endpoints' values,
// which is exact P1 interpolation; the mean is symmetric in a and b, so every
// forest that splits the edge, local or remote, derives the same value from
// the same endpoint values. A midpoint already held keeps its value.
func (f *Forest) InternMidpoint(a, b int32) int32 {
	li, fresh := f.intern(MidID(f.VIDs[a], f.VIDs[b]), f.Coords[a].Mid(f.Coords[b]))
	if fresh && f.Field != nil {
		f.Field[li] = (f.Field[a] + f.Field[b]) / 2
	}
	return li
}

// intern is InternVertex, also reporting whether the slot is new; a new slot
// of a forest with a field starts at 0.
func (f *Forest) intern(id VertexID, c geom.Vec3) (li int32, fresh bool) {
	next, nfree := int32(len(f.Coords)), len(f.freeV)
	if nfree > 0 {
		next = f.freeV[nfree-1]
	}
	li, ok := f.vidx.FindOrPut(uint64(id), next)
	if ok {
		if f.Coords[li] != c {
			panic(fmt.Sprintf("forest: VertexID collision: id %x at %v and %v", uint64(id), f.Coords[li], c))
		}
		return li, false
	}
	if nfree > 0 {
		f.freeV = f.freeV[:nfree-1]
		f.Coords[li], f.VIDs[li] = c, id
		if f.Field != nil {
			f.Field[li] = 0
		}
		return li, true
	}
	f.Coords = push(f.Coords, c)
	f.VIDs = push(f.VIDs, id)
	f.uses = push(f.uses, 0)
	if f.Field != nil {
		f.Field = push(f.Field, 0)
	}
	return li, true
}

// freeVertex frees vertex slot v, which no live node names any more.
func (f *Forest) freeVertex(v int32) {
	f.vidx.Delete(uint64(f.VIDs[v]))
	f.freeV = append(f.freeV, v)
}

// Uses returns the number of live nodes whose Verts name local vertex v: 0
// for a free slot.
func (f *Forest) Uses(v int32) int { return int(f.uses[v]) }

// CheckVertices verifies (for tests and paredassert) the vertex bookkeeping:
// each slot's use count equals a recount over the live nodes, a free slot has
// no use and is not indexed, a used slot is indexed under its own ID, and the
// index holds the used slots only; a field, if any, has one value per slot.
// Call it where no midpoint is interned without its nodes, as at refinement
// quiescence. The fault reported is the one on the smallest slot.
func (f *Forest) CheckVertices() error {
	if f.Field != nil && len(f.Field) != len(f.Coords) {
		return fmt.Errorf("forest: field of %d values over %d vertex slots", len(f.Field), len(f.Coords))
	}
	count := make([]int32, len(f.Coords))
	for i := range f.Nodes {
		if n := &f.Nodes[i]; !n.Dead {
			for _, v := range n.Verts {
				if v >= 0 {
					count[v]++
				}
			}
		}
	}
	free := make([]bool, len(f.Coords))
	for _, v := range f.freeV {
		if free[v] {
			return fmt.Errorf("forest: vertex slot %d is on the free list twice", v)
		}
		free[v] = true
	}
	used := 0
	for v, c := range count {
		at := f.LookupVertex(f.VIDs[v])
		switch {
		case f.uses[v] != c:
			return fmt.Errorf("forest: vertex slot %d counts %d uses, %d live nodes name it", v, f.uses[v], c)
		case free[v] && (c > 0 || at == int32(v)):
			return fmt.Errorf("forest: free vertex slot %d has %d uses and is indexed at %d", v, c, at)
		case !free[v] && (c == 0 || at != int32(v)):
			return fmt.Errorf("forest: vertex slot %d is not free, has %d uses and is indexed at %d", v, c, at)
		}
		if !free[v] {
			used++
		}
	}
	if f.vidx.Len() != used {
		return fmt.Errorf("forest: %d used vertex slots, %d indexed", used, f.vidx.Len())
	}
	return nil
}

// LookupVertex returns the local index of a global vertex ID, or -1.
func (f *Forest) LookupVertex(id VertexID) int32 {
	li, _ := f.vidx.Find(uint64(id))
	return li
}

// push appends x to s, doubling the capacity when s is full. append's own
// rule falls to 1.25× for large slices, and the node and vertex tables grow
// by refinement from a few thousand entries to millions: doubling allocates
// less than half as much over that growth.
func push[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, max(2*cap(s), 64)), s...)
	}
	return append(s, x)
}

// AddRoot installs a coarse element (given by local vertex indices) as the
// root of tree `root`. It panics if the tree already exists.
func (f *Forest) AddRoot(root int32, verts [4]int32) NodeID {
	f.mustPlace(root, "AddRoot")
	n := f.alloc(Node{
		Verts:  verts,
		Parent: NoNode,
		Kids:   [2]NodeID{NoNode, NoNode},
		Root:   root,
		MidV:   -1,
	})
	f.hold(root, n, 1)
	return n
}

// alloc stores n in a free node slot or a new one and counts its vertex
// uses.
func (f *Forest) alloc(n Node) NodeID {
	for _, v := range n.Verts {
		if v >= 0 {
			f.uses[v]++
		}
	}
	if len(f.free) > 0 {
		id := f.free[len(f.free)-1]
		f.free = f.free[:len(f.free)-1]
		f.Nodes[id] = n
		return id
	}
	f.Nodes = push(f.Nodes, n)
	return NodeID(len(f.Nodes) - 1)
}

// kill frees node slot id and its vertex uses, freeing each vertex slot that
// loses its last use.
func (f *Forest) kill(id NodeID) {
	n := f.Node(id)
	n.Dead = true
	f.free = append(f.free, id)
	for _, v := range n.Verts {
		if v < 0 {
			continue
		}
		if f.uses[v]--; f.uses[v] == 0 {
			f.freeVertex(v)
		}
	}
}

// Node returns a pointer to the node with the given ID.
func (f *Forest) Node(id NodeID) *Node { return &f.Nodes[id] }

// mustPlace panics unless tree root can be added: a root is a coarse-element
// index, so it is not negative, and a tree is held at most once.
func (f *Forest) mustPlace(root int32, op string) {
	if root < 0 {
		panic(fmt.Sprintf("forest: %s(%d): negative root", op, root))
	}
	if f.Root(root) != NoNode {
		panic(fmt.Sprintf("forest: %s(%d): tree already held", op, root))
	}
}

// hold enters tree root, with root node n and the given leaf count, in the
// sorted list and the dense index, growing the index to one past root.
func (f *Forest) hold(root int32, n NodeID, leaves int) {
	at, _ := slices.BinarySearch(f.roots, root)
	f.roots = slices.Insert(f.roots, at, root)
	for len(f.trees) <= int(root) {
		f.trees = append(f.trees, treeSlot{node: NoNode})
	}
	f.trees[root] = treeSlot{node: n, leaves: uint32(leaves)}
	f.nLeaves += leaves
}

// Root returns the root node of tree `root`, or NoNode if this forest does
// not hold that tree (any id, negative or past every root, is asked safely).
// It is one index into the dense per-root index.
func (f *Forest) Root(root int32) NodeID {
	if uint(root) < uint(len(f.trees)) {
		return f.trees[root].node
	}
	return NoNode
}

// Roots returns the sorted global IDs of the trees held by this forest. The
// slice is the caller's: it stays valid while trees are added or removed.
func (f *Forest) Roots() []int32 {
	return append(make([]int32, 0, len(f.roots)), f.roots...)
}

// NumRoots returns the number of trees held.
func (f *Forest) NumRoots() int { return len(f.roots) }

// NumLeaves returns the total number of leaf elements across all held trees.
func (f *Forest) NumLeaves() int { return f.nLeaves }

// LeafCount returns the number of leaves of tree `root` (0 if not held, for
// any id). This is the vertex weight of the coarse dual graph G in the paper.
// Like Root, it is one index into the dense per-root index.
func (f *Forest) LeafCount(root int32) int {
	if uint(root) < uint(len(f.trees)) {
		return int(f.trees[root].leaves &^ changedBit)
	}
	return 0
}

// Changed reports whether tree root was bisected or un-bisected since it
// entered the forest or ClearChanged last ran (false if not held, for any id).
func (f *Forest) Changed(root int32) bool {
	return uint(root) < uint(len(f.trees)) && f.trees[root].leaves&changedBit != 0
}

// ClearChanged marks every held tree unchanged.
func (f *Forest) ClearChanged() {
	for _, r := range f.roots {
		f.trees[r].leaves &^= changedBit
	}
}

// Bisect splits leaf n at the edge given by local vertex indices (a, b) with
// the already-interned midpoint vertex mid. It returns the two children.
// Child 0 replaces b with mid; child 1 replaces a with mid, so both keep the
// parent's orientation with half its measure.
func (f *Forest) Bisect(id NodeID, a, b, mid int32) (k0, k1 NodeID) {
	n := f.Node(id)
	if !n.IsLeaf() || n.Dead {
		panic("forest: Bisect on non-leaf or dead node")
	}
	mk := func(replace, with int32) Node {
		c := Node{
			Parent: id,
			Kids:   [2]NodeID{NoNode, NoNode},
			Root:   n.Root,
			Level:  n.Level + 1,
			MidV:   -1,
		}
		c.Verts = n.Verts
		for i := range c.Verts {
			if c.Verts[i] == replace {
				c.Verts[i] = with
			}
		}
		return c
	}
	c0 := mk(b, mid)
	c1 := mk(a, mid)
	k0 = f.alloc(c0)
	k1 = f.alloc(c1)
	n = f.Node(id) // realloc-safe re-fetch
	n.Kids = [2]NodeID{k0, k1}
	n.RefEdge = [2]int32{a, b}
	n.MidV = mid
	f.trees[n.Root].leaves++ // one leaf became two
	f.trees[n.Root].leaves |= changedBit
	f.nLeaves++
	return k0, k1
}

// Unbisect undoes the bisection of node id: its two children (which must be
// leaves) are removed and id becomes a leaf again, and the midpoint's slot is
// freed if they were its last users. The caller is responsible for
// conformity (see refine.Coarsen).
func (f *Forest) Unbisect(id NodeID) {
	n := f.Node(id)
	if n.IsLeaf() {
		panic("forest: Unbisect on leaf")
	}
	for _, k := range n.Kids {
		if !f.Node(k).IsLeaf() {
			panic("forest: Unbisect with non-leaf child")
		}
		f.kill(k)
	}
	n.Kids = [2]NodeID{NoNode, NoNode}
	n.MidV = -1
	f.trees[n.Root].leaves--
	f.trees[n.Root].leaves |= changedBit
	f.nLeaves--
}

// VisitLeaves calls fn for every leaf node, tree by tree in sorted root
// order, depth-first with child 0 before child 1. The order is deterministic
// and identical for any forest holding the same trees in the same state. fn
// may bisect and un-bisect but must not add or remove trees.
func (f *Forest) VisitLeaves(fn func(id NodeID)) {
	for _, r := range f.roots {
		f.visitLeavesFrom(f.trees[r].node, fn)
	}
}

// VisitTreeLeaves calls fn for every leaf of tree root, in VisitLeaves order.
// It panics if the tree is not held.
func (f *Forest) VisitTreeLeaves(root int32, fn func(id NodeID)) {
	rid := f.Root(root)
	if rid == NoNode {
		panic(fmt.Sprintf("forest: VisitTreeLeaves(%d): tree not held", root))
	}
	f.visitLeavesFrom(rid, fn)
}

func (f *Forest) visitLeavesFrom(id NodeID, fn func(id NodeID)) {
	n := f.Node(id)
	if n.IsLeaf() {
		fn(id)
		return
	}
	f.visitLeavesFrom(n.Kids[0], fn)
	f.visitLeavesFrom(n.Kids[1], fn)
}

// VisitRootBoundary calls fn, in VisitLeaves order, for every leaf of tree
// root with a vertex on the boundary of the root simplex. on[k] is the set of
// root facets vertex k of the leaf lies on, bit j standing for the facet
// opposite root vertex j; a leaf facet lies on root facet j exactly when the
// AND over its vertices' masks has bit j. Nothing is stored per node: root
// vertex i lies on every root facet but i, a midpoint on the facets both its
// endpoints lie on, and Bisect keeps vertex positions, so the masks ride down
// the descent by position. A subtree with no vertex on the root boundary is
// not entered. It panics if the tree is not held.
func (f *Forest) VisitRootBoundary(root int32, fn func(leaf NodeID, on [4]uint8)) {
	rid := f.Root(root)
	if rid == NoNode {
		panic(fmt.Sprintf("forest: VisitRootBoundary(%d): tree not held", root))
	}
	nv := f.Node(rid).Nv()
	var on [4]uint8
	for i := 0; i < nv; i++ {
		on[i] = (1<<nv - 1) &^ (1 << i)
	}
	f.visitRootBoundaryFrom(rid, on, fn)
}

func (f *Forest) visitRootBoundaryFrom(id NodeID, on [4]uint8, fn func(leaf NodeID, on [4]uint8)) {
	if on == [4]uint8{} {
		return
	}
	n := f.Node(id)
	if n.IsLeaf() {
		fn(id, on)
		return
	}
	// Child 0 holds the midpoint where the parent held RefEdge[1], child 1
	// where it held RefEdge[0] (see Bisect).
	a := slices.Index(n.Verts[:], n.RefEdge[0])
	b := slices.Index(n.Verts[:], n.RefEdge[1])
	on0, on1 := on, on
	on0[b] &= on[a]
	on1[a] &= on[b]
	f.visitRootBoundaryFrom(n.Kids[0], on0, fn)
	f.visitRootBoundaryFrom(n.Kids[1], on1, fn)
}

// SortLeaves puts ids, leaves of held trees, into VisitLeaves order and drops
// repeats, in place, and returns the shortened slice. It compares nothing: it
// marks the path from each leaf up to the first marked node, then descends
// from the marked roots in ascending order through marked nodes only, child 0
// before child 1, unmarking them and collecting the leaves it reaches. So it
// costs the union of the leaves' root paths, not the forest, and allocates
// nothing once its scratch has grown with the node table.
func (f *Forest) SortLeaves(ids []NodeID) []NodeID {
	if k := len(f.Nodes) - len(f.marked); k > 0 {
		f.marked = append(f.marked, make([]bool, k)...)
	}
	roots := f.markedRoots[:0]
	for _, id := range ids {
		for n := id; !f.marked[n]; {
			f.marked[n] = true
			if p := f.Nodes[n].Parent; p != NoNode {
				n = p
			} else {
				roots = append(roots, f.Nodes[n].Root)
			}
		}
	}
	slices.Sort(roots)
	out := ids[:0]
	for _, r := range roots {
		out = f.collectMarked(f.trees[r].node, out)
	}
	f.markedRoots = roots[:0]
	return out
}

// collectMarked appends to out, in VisitLeaves order, the marked leaves of the
// subtree of id, and unmarks every node it visits.
func (f *Forest) collectMarked(id NodeID, out []NodeID) []NodeID {
	if !f.marked[id] {
		return out
	}
	f.marked[id] = false
	n := &f.Nodes[id]
	if n.IsLeaf() {
		return append(out, id)
	}
	out = f.collectMarked(n.Kids[0], out)
	return f.collectMarked(n.Kids[1], out)
}

// Leaves returns all leaf NodeIDs in deterministic order.
func (f *Forest) Leaves() []NodeID {
	out := make([]NodeID, 0, f.nLeaves)
	f.VisitLeaves(func(id NodeID) { out = append(out, id) })
	return out
}

// MaxLevel returns the deepest refinement level among leaves.
func (f *Forest) MaxLevel() int32 {
	var max int32
	f.VisitLeaves(func(id NodeID) {
		if l := f.Node(id).Level; l > max {
			max = l
		}
	})
	return max
}

// LeafMeshResult bundles the extracted leaf mesh with back-references into
// the forest.
type LeafMeshResult struct {
	// Mesh is the current most-refined mesh Mᵗ with compacted vertex indices.
	Mesh *mesh.Mesh
	// Leaf2Node maps each mesh element to its forest node.
	Leaf2Node []NodeID
	// LeafRoot maps each mesh element to its coarse ancestor (global root ID).
	LeafRoot []int32
	// Vert2Local maps each mesh vertex back to the forest's local index.
	Vert2Local []int32
}

// LeafMesh extracts the current leaf mesh with vertices compacted to those in
// use. Element order follows VisitLeaves and is deterministic.
func (f *Forest) LeafMesh() *LeafMeshResult {
	res := &LeafMeshResult{Mesh: &mesh.Mesh{Dim: f.Dim}}
	// remap[v] is local vertex v's mesh index, or -1 until a leaf uses it.
	remap := make([]int32, len(f.Coords))
	for i := range remap {
		remap[i] = -1
	}
	mapv := func(v int32) int32 {
		if nv := remap[v]; nv >= 0 {
			return nv
		}
		nv := int32(len(res.Mesh.Verts))
		remap[v] = nv
		res.Mesh.Verts = append(res.Mesh.Verts, f.Coords[v])
		res.Vert2Local = append(res.Vert2Local, v)
		return nv
	}
	f.VisitLeaves(func(id NodeID) {
		n := f.Node(id)
		var el mesh.Element
		el.V[3] = -1
		for i := 0; i < n.Nv(); i++ {
			el.V[i] = mapv(n.Verts[i])
		}
		res.Mesh.Elems = append(res.Mesh.Elems, el)
		res.Leaf2Node = append(res.Leaf2Node, id)
		res.LeafRoot = append(res.LeafRoot, n.Root)
	})
	return res
}

// CanonicalLeaves returns, for every leaf, its sorted global vertex IDs. Two
// forests hold the same refined mesh exactly when their canonical leaf sets
// are equal; the distributed-vs-serial refinement tests rely on this.
func (f *Forest) CanonicalLeaves() [][4]VertexID {
	out := make([][4]VertexID, 0, f.nLeaves)
	f.VisitLeaves(func(id NodeID) {
		n := f.Node(id)
		var key [4]VertexID
		nv := n.Nv()
		for i := 0; i < nv; i++ {
			key[i] = f.VIDs[n.Verts[i]]
		}
		if nv == 3 {
			key[3] = ^VertexID(0)
		}
		sort4(&key)
		out = append(out, key)
	})
	slices.SortFunc(out, func(a, b [4]VertexID) int { return slices.Compare(a[:], b[:]) })
	return out
}

func sort4(k *[4]VertexID) {
	for i := 1; i < 4; i++ {
		for j := i; j > 0 && k[j] < k[j-1]; j-- {
			k[j], k[j-1] = k[j-1], k[j]
		}
	}
}

// EdgeLen2 returns the squared length of the edge between local vertices a, b.
func (f *Forest) EdgeLen2(a, b int32) float64 {
	return f.Coords[a].Dist2(f.Coords[b])
}

// LongestEdge returns the local vertex indices (a, b) of node id's longest
// edge. Ties break toward the smaller global VertexID pair, which makes the
// choice identical across replicas regardless of local index assignment.
func (f *Forest) LongestEdge(id NodeID) (a, b int32) {
	n := f.Node(id)
	nv := n.Nv()
	bestLen := -1.0
	var bestA, bestB int32
	var bestKA, bestKB VertexID
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			va, vb := n.Verts[i], n.Verts[j]
			l := f.EdgeLen2(va, vb)
			ka, kb := f.VIDs[va], f.VIDs[vb]
			if ka > kb {
				ka, kb = kb, ka
				va, vb = vb, va
			}
			// ">= && less" realizes the equal-length tie-break without a
			// float ==: the > clause has already failed when it is evaluated.
			if l > bestLen || (l >= bestLen && (ka < bestKA || (ka == bestKA && kb < bestKB))) {
				bestLen, bestA, bestB, bestKA, bestKB = l, va, vb, ka, kb
			}
		}
	}
	return bestA, bestB
}

// TreeSize returns the number of nodes of tree root (0 if not held, for any
// id): a bisection tree of L leaves has 2L−1.
func (f *Forest) TreeSize(root int32) int {
	return max(2*f.LeafCount(root)-1, 0)
}
