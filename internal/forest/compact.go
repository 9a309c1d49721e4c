package forest

// CompactVertices rebuilds the vertex table keeping only vertices referenced
// by live nodes, reclaiming the orphans that coarsening and tree migration
// leave behind. It returns the number of vertices reclaimed and the remap:
// the new local index of every old one, or -1 for a reclaimed vertex; nil if
// nothing was reclaimed, when every index stays. The remap is monotone on the
// kept vertices and never raises an index, so an ordered pair of kept indices
// stays ordered. A refine.Refiner over the forest compacts through its own
// CompactVertices, which rekeys its edge records by this remap; a cached
// LeafMeshResult must be rebuilt.
func (f *Forest) CompactVertices() (reclaimed int, remap []int32) {
	used, _ := f.usedVertices()
	remap = make([]int32, len(f.Coords))
	kept := int32(0)
	for i, u := range used {
		if u {
			remap[i] = kept
			f.Coords[kept] = f.Coords[i]
			f.VIDs[kept] = f.VIDs[i]
			kept++
		} else {
			remap[i] = -1
		}
	}
	reclaimed = len(f.Coords) - int(kept)
	if reclaimed == 0 {
		return 0, nil
	}
	f.Coords = f.Coords[:kept]
	f.VIDs = f.VIDs[:kept]
	f.vidx.Clear()
	for i, id := range f.VIDs {
		f.vidx.FindOrPut(uint64(id), int32(i))
	}
	for i := range f.Nodes {
		n := &f.Nodes[i]
		if n.Dead {
			continue
		}
		for k, v := range n.Verts {
			if v >= 0 {
				n.Verts[k] = remap[v]
			}
		}
		if n.MidV >= 0 {
			n.MidV = remap[n.MidV]
		}
		if !n.IsLeaf() {
			n.RefEdge[0] = remap[n.RefEdge[0]]
			n.RefEdge[1] = remap[n.RefEdge[1]]
		}
	}
	return reclaimed, remap
}

// LiveVertices returns the number of vertices live nodes reference: the
// length CompactVertices would leave the vertex table at. It is the marking
// pass of CompactVertices alone, with no renumbering.
func (f *Forest) LiveVertices() int {
	_, live := f.usedVertices()
	return live
}

// usedVertices marks the vertices referenced by live nodes and counts them.
func (f *Forest) usedVertices() (used []bool, live int) {
	used = make([]bool, len(f.Coords))
	mark := func(v int32) {
		if v >= 0 && !used[v] {
			used[v] = true
			live++
		}
	}
	for i := range f.Nodes {
		n := &f.Nodes[i]
		if n.Dead {
			continue
		}
		for _, v := range n.Verts {
			mark(v)
		}
		mark(n.MidV)
		if !n.IsLeaf() {
			mark(n.RefEdge[0])
			mark(n.RefEdge[1])
		}
	}
	return used, live
}
