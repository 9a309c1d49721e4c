package forest

import (
	"fmt"
	"slices"

	"pared/internal/geom"
	"pared/internal/mesh"
)

// PayloadNode is one node of a serialized refinement tree. Vertex and kid
// references are payload-local indices.
type PayloadNode struct {
	Verts   [4]int32
	Kids    [2]int32 // payload-local node indices, -1 for leaves
	RefEdge [2]int32 // payload-local vertex indices (interior nodes only)
	MidV    int32    // payload-local vertex index, -1 for leaves
}

// TreePayload is a self-contained serialization of one refinement history
// tree. It is what moves between processors when PNR reassigns a coarse
// element: "when an element is migrated to another processor all its
// descendants are migrated as well" (paper §2). The tree's data moves with
// it: Field holds the forest's field value at each vertex, or is nil for a
// forest without a field (a bare tree).
type TreePayload struct {
	Root   int32
	Level0 int32 // level of the root node (0 unless trees are re-rooted)
	VIDs   []VertexID
	Coords []geom.Vec3
	Field  []float64     // nil, or one value per vertex
	Nodes  []PayloadNode // preorder; node 0 is the tree root
}

// check verifies node i of the payload of tree root, with nv vertices and nn
// nodes, before InsertTree indexes with it, against a simplex of sv vertices
// (3 in 2D, 4 in 3D): every vertex word is in [-1, nv), Verts[0..sv) are
// vertices and the rest -1, and the kids are either both -1 or both in
// (i, nn), in which case RefEdge and MidV are vertices too. Preorder puts both
// kids after their parent, which also rules out cycles, so InsertTree's
// recursion terminates. decodeWire holds every node to it, so a migration and
// a forest file (Read) are checked alike.
func (n *PayloadNode) check(root int32, i, sv, nv, nn int) error {
	for _, v := range [...]int32{n.Verts[0], n.Verts[1], n.Verts[2], n.Verts[3], n.RefEdge[0], n.RefEdge[1], n.MidV} {
		if v < -1 || int(v) >= nv {
			return fmt.Errorf("forest: tree %d node %d: vertex index %d outside [-1, %d)", root, i, v, nv)
		}
	}
	for k, v := range n.Verts {
		if (k < sv) != (v >= 0) {
			return fmt.Errorf("forest: tree %d node %d: Verts[%d] = %d in a simplex of %d vertices", root, i, k, v, sv)
		}
	}
	k0, k1 := int(n.Kids[0]), int(n.Kids[1])
	leaf := k0 == -1 && k1 == -1
	interior := k0 > i && k0 < nn && k1 > i && k1 < nn
	if !leaf && !interior {
		return fmt.Errorf("forest: tree %d node %d: kids (%d, %d) neither both -1 nor both in (%d, %d)", root, i, k0, k1, i, nn)
	}
	if interior && (n.RefEdge[0] < 0 || n.RefEdge[1] < 0 || n.MidV < 0) {
		return fmt.Errorf("forest: tree %d node %d: interior node with RefEdge (%d, %d) and MidV %d", root, i, n.RefEdge[0], n.RefEdge[1], n.MidV)
	}
	return nil
}

// Dim returns the dimension of the tree's simplices, read off its root: a
// tetrahedron names a fourth vertex, a triangle does not.
func (p *TreePayload) Dim() mesh.Dim {
	if p.Nodes[0].Verts[3] < 0 {
		return 2
	}
	return 3
}

// NumLeaves counts the leaves in the payload.
func (p *TreePayload) NumLeaves() int {
	n := 0
	for _, nd := range p.Nodes {
		if nd.Kids[0] < 0 {
			n++
		}
	}
	return n
}

// ExtractTree serializes tree root into a fresh payload, with the field
// values of its vertices if the forest has a field. The forest is unchanged;
// pair with RemoveTree to complete a migration send.
func (f *Forest) ExtractTree(root int32) *TreePayload {
	p := new(TreePayload)
	f.extract(p, root)
	return p
}

// AppendTree appends the wire encoding of tree root, the bytes EncodePayloads
// writes for ExtractTree(root), to buf. The tree is extracted into a payload
// the forest keeps, so once that payload has grown and buf has room
// (TreeWireBound) a tree costs no allocation.
func (f *Forest) AppendTree(buf []byte, root int32) []byte {
	f.extract(&f.out, root)
	return f.out.appendWire(buf)
}

// extract fills p with tree root, reusing the room of p's slices; Nodes gets
// room for exactly the tree's nodes (TreeSize). Vertices are numbered in order
// of first use through the forest's dense per-slot scratch, which the
// payload's own vertex list resets afterwards.
func (f *Forest) extract(p *TreePayload, root int32) {
	rid := f.Root(root)
	if rid == NoNode {
		panic(fmt.Sprintf("forest: ExtractTree(%d): tree not held", root))
	}
	if nodes := f.TreeSize(root); cap(p.Nodes) < nodes {
		p.Nodes = make([]PayloadNode, 0, nodes)
	}
	p.Root, p.Level0 = root, f.Node(rid).Level
	p.VIDs, p.Coords, p.Nodes = p.VIDs[:0], p.Coords[:0], p.Nodes[:0]
	for len(f.vnum) < len(f.Coords) {
		f.vnum = append(f.vnum, -1)
	}
	f.extractNode(p, rid)
	if f.Field == nil {
		p.Field = nil
	} else {
		p.Field = resize(p.Field, len(p.VIDs))
	}
	for i, id := range p.VIDs {
		v := f.LookupVertex(id)
		f.vnum[v] = -1
		if p.Field != nil {
			p.Field[i] = f.Field[v]
		}
	}
}

// extractNode appends the subtree of id to p in preorder, returning id's index.
func (f *Forest) extractNode(p *TreePayload, id NodeID) int32 {
	n := f.Node(id)
	slot := int32(len(p.Nodes))
	p.Nodes = append(p.Nodes, PayloadNode{})
	pn := PayloadNode{Kids: [2]int32{-1, -1}, MidV: -1}
	for i := 0; i < 4; i++ {
		pn.Verts[i] = f.payloadVertex(p, n.Verts[i])
	}
	if !n.IsLeaf() {
		pn.RefEdge = [2]int32{f.payloadVertex(p, n.RefEdge[0]), f.payloadVertex(p, n.RefEdge[1])}
		pn.MidV = f.payloadVertex(p, n.MidV)
		pn.Kids[0] = f.extractNode(p, n.Kids[0])
		pn.Kids[1] = f.extractNode(p, n.Kids[1])
	}
	p.Nodes[slot] = pn
	return slot
}

// payloadVertex numbers local vertex v in p, listing it on first use.
func (f *Forest) payloadVertex(p *TreePayload, v int32) int32 {
	if v < 0 {
		return -1
	}
	if pv := f.vnum[v]; pv >= 0 {
		return pv
	}
	pv := int32(len(p.VIDs))
	f.vnum[v] = pv
	p.VIDs = append(p.VIDs, f.VIDs[v])
	p.Coords = append(p.Coords, f.Coords[v])
	return pv
}

// RemoveTree deletes tree root from the forest, freeing its node slots and
// every vertex slot no other held tree uses; a tree that comes back interns
// its vertices afresh.
func (f *Forest) RemoveTree(root int32) {
	rid := f.Root(root)
	if rid == NoNode {
		panic(fmt.Sprintf("forest: RemoveTree(%d): tree not held", root))
	}
	leaves := 0
	var walk func(id NodeID)
	walk = func(id NodeID) {
		n := f.Node(id)
		if n.IsLeaf() {
			leaves++
		} else {
			walk(n.Kids[0])
			walk(n.Kids[1])
		}
		f.kill(id)
	}
	walk(rid)
	at, _ := slices.BinarySearch(f.roots, root)
	f.roots = slices.Delete(f.roots, at, at+1)
	f.trees[root] = treeSlot{node: NoNode}
	f.nLeaves -= leaves
}

// InsertTree splices a payload into the forest, interning its vertices.
// A vertex the forest does not hold yet takes the payload's field value; one
// it holds keeps its own. A payload with a field gives a forest without one a
// field, 0 at the vertices already held. It returns an error, and inserts
// nothing, if the payload names a vertex ID twice or names one the forest
// holds at other coordinates (checkVertexIDs). It panics if the tree is
// already held or its root is negative. The dense root index grows to one
// past p.Root: a payload off the wire must have its root checked against the
// coarse mesh first.
func (f *Forest) InsertTree(p *TreePayload) error {
	f.mustPlace(p.Root, "InsertTree")
	if err := f.checkVertexIDs(p); err != nil {
		return err
	}
	if p.Field != nil && f.Field == nil {
		f.Field = make([]float64, len(f.Coords))
	}
	f.pverts = append(f.pverts[:0], -1)
	for i := range p.VIDs {
		li, fresh := f.intern(p.VIDs[i], p.Coords[i])
		if fresh && p.Field != nil {
			f.Field[li] = p.Field[i]
		}
		f.pverts = append(f.pverts, li)
	}
	id, leaves := f.insertNode(p, 0, NoNode, p.Level0)
	f.hold(p.Root, id, leaves)
	return nil
}

// insertNode allocates payload node slot and its subtree under parent,
// returning the new node's ID and the subtree's leaf count.
func (f *Forest) insertNode(p *TreePayload, slot int32, parent NodeID, level int32) (NodeID, int) {
	pn := &p.Nodes[slot]
	n := Node{Parent: parent, Kids: [2]NodeID{NoNode, NoNode}, Root: p.Root, Level: level, MidV: -1}
	for i := 0; i < 4; i++ {
		n.Verts[i] = f.pverts[pn.Verts[i]+1]
	}
	id := f.alloc(n)
	if pn.Kids[0] < 0 {
		return id, 1
	}
	k0, l0 := f.insertNode(p, pn.Kids[0], id, level+1)
	k1, l1 := f.insertNode(p, pn.Kids[1], id, level+1)
	nd := f.Node(id)
	nd.Kids = [2]NodeID{k0, k1}
	nd.RefEdge = [2]int32{f.pverts[pn.RefEdge[0]+1], f.pverts[pn.RefEdge[1]+1]}
	nd.MidV = f.pverts[pn.MidV+1]
	return id, l0 + l1
}

// checkVertexIDs returns an error if interning p's vertices would make two
// vertices one: p names a vertex ID twice, or names one the forest holds at
// other coordinates. Neither happens to a payload ExtractTree made from a
// forest that shares the receiver's vertex naming, so either one marks a
// corrupt payload or a file whose trees do not belong together.
func (f *Forest) checkVertexIDs(p *TreePayload) error {
	f.seen.Clear()
	for i, id := range p.VIDs {
		if j, dup := f.seen.FindOrPut(uint64(id), int32(i)); dup {
			return fmt.Errorf("forest: tree %d names vertex ID %x twice, as vertices %d and %d", p.Root, uint64(id), j, i)
		}
		if li, held := f.vidx.Find(uint64(id)); held && f.Coords[li] != p.Coords[i] {
			return fmt.Errorf("forest: tree %d puts vertex ID %x at %v, held at %v", p.Root, uint64(id), p.Coords[i], f.Coords[li])
		}
	}
	return nil
}
