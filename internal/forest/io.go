package forest

import (
	"bufio"
	"fmt"
	"io"

	"pared/internal/geom"
)

// Write serializes the forest — vertices with global IDs, and every tree in
// payload form — in a line-oriented text format, so adapted meshes with
// their full refinement history can be stored and reloaded (for checkpoint/
// restart, or to partition a previously adapted mesh offline). The format
// carries no field (Forest.Field): a reloaded forest has none, so the first
// distributed solve on it starts cold.
//
// Format:
//
//	pared-forest <dim> <numTrees>
//	tree <root> <level0> <numVerts> <numNodes>
//	<id> <x> <y> <z>          (numVerts lines, payload-local order)
//	<v0> <v1> <v2> <v3> <k0> <k1> <ea> <eb> <mid>   (numNodes lines)
func (f *Forest) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	roots := f.Roots()
	fmt.Fprintf(bw, "pared-forest %d %d\n", f.Dim, len(roots))
	for _, r := range roots {
		p := f.ExtractTree(r)
		fmt.Fprintf(bw, "tree %d %d %d %d\n", p.Root, p.Level0, len(p.VIDs), len(p.Nodes))
		for i := range p.VIDs {
			c := p.Coords[i]
			fmt.Fprintf(bw, "%d %.17g %.17g %.17g\n", uint64(p.VIDs[i]), c.X, c.Y, c.Z)
		}
		for _, n := range p.Nodes {
			fmt.Fprintf(bw, "%d %d %d %d %d %d %d %d %d\n",
				n.Verts[0], n.Verts[1], n.Verts[2], n.Verts[3],
				n.Kids[0], n.Kids[1], n.RefEdge[0], n.RefEdge[1], n.MidV)
		}
	}
	return bw.Flush()
}

// Read parses the format written by Write into a fresh forest.
func Read(r io.Reader) (*Forest, error) {
	br := bufio.NewReader(r)
	var dim, ntrees int
	if _, err := fmt.Fscanf(br, "pared-forest %d %d\n", &dim, &ntrees); err != nil {
		return nil, fmt.Errorf("forest: bad header: %w", err)
	}
	if dim != 2 && dim != 3 {
		return nil, fmt.Errorf("forest: bad dimension %d", dim)
	}
	f := New(2)
	f.Dim = 2
	if dim == 3 {
		f.Dim = 3
	}
	if ntrees < 0 {
		return nil, fmt.Errorf("forest: negative tree count %d", ntrees)
	}
	for t := 0; t < ntrees; t++ {
		var p TreePayload
		var nv, nn int
		var kw string
		if _, err := fmt.Fscan(br, &kw, &p.Root, &p.Level0, &nv, &nn); err != nil || kw != "tree" {
			return nil, fmt.Errorf("forest: tree %d header (kw=%q): %w", t, kw, err)
		}
		if p.Root < 0 || f.Root(p.Root) != NoNode {
			return nil, fmt.Errorf("forest: tree %d: root %d negative or already read", t, p.Root)
		}
		if nv < 0 || nn <= 0 {
			return nil, fmt.Errorf("forest: tree %d: %d vertices and %d nodes", t, nv, nn)
		}
		// The counts are unchecked claims: the slices grow as lines arrive.
		for i := 0; i < nv; i++ {
			var id uint64
			var c geom.Vec3
			if _, err := fmt.Fscan(br, &id, &c.X, &c.Y, &c.Z); err != nil {
				return nil, fmt.Errorf("forest: tree %d vertex %d: %w", t, i, err)
			}
			p.VIDs = append(p.VIDs, VertexID(id))
			p.Coords = append(p.Coords, c)
		}
		for i := 0; i < nn; i++ {
			var n PayloadNode
			if _, err := fmt.Fscan(br,
				&n.Verts[0], &n.Verts[1], &n.Verts[2], &n.Verts[3],
				&n.Kids[0], &n.Kids[1], &n.RefEdge[0], &n.RefEdge[1], &n.MidV); err != nil {
				return nil, fmt.Errorf("forest: tree %d node %d: %w", t, i, err)
			}
			if err := n.check(p.Root, i, dim+1, nv, nn); err != nil {
				return nil, err
			}
			p.Nodes = append(p.Nodes, n)
		}
		f.InsertTree(&p)
	}
	return f, nil
}
