package mesh

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"pared/internal/geom"
)

// Write serializes the mesh in a simple line-oriented text format:
//
//	pared-mesh <dim> <numVerts> <numElems>
//	x y z                 (numVerts lines)
//	v0 v1 v2 [v3]         (numElems lines)
func (m *Mesh) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "pared-mesh %d %d %d\n", m.Dim, m.NumVerts(), m.NumElems())
	// Per-line formatting goes through one reused buffer (strconv appends
	// produce the same text as the former %.17g / %d Fprintf calls, without
	// the per-line boxing allocations).
	buf := make([]byte, 0, 96)
	for _, v := range m.Verts {
		buf = strconv.AppendFloat(buf[:0], v.X, 'g', 17, 64)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, v.Y, 'g', 17, 64)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, v.Z, 'g', 17, 64)
		buf = append(buf, '\n')
		_, _ = bw.Write(buf) // error is sticky; reported by Flush below
	}
	for _, el := range m.Elems {
		buf = strconv.AppendInt(buf[:0], int64(el.V[0]), 10)
		for k := 1; k < el.Nv(); k++ {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(el.V[k]), 10)
		}
		buf = append(buf, '\n')
		_, _ = bw.Write(buf) // error is sticky; reported by Flush below
	}
	return bw.Flush()
}

// ReadFrom parses the format written by Write and validates the result.
func ReadFrom(r io.Reader) (*Mesh, error) {
	br := bufio.NewReader(r)
	var dim, nv, ne int
	if _, err := fmt.Fscanf(br, "pared-mesh %d %d %d\n", &dim, &nv, &ne); err != nil {
		return nil, fmt.Errorf("mesh: bad header: %w", err)
	}
	if dim != 2 && dim != 3 {
		return nil, fmt.Errorf("mesh: bad dimension %d", dim)
	}
	if nv < 0 || ne < 0 {
		return nil, fmt.Errorf("mesh: negative count in header (%d vertices, %d elements)", nv, ne)
	}
	// The counts are unchecked claims: the slices grow as lines arrive.
	m := &Mesh{Dim: Dim(dim)}
	for i := 0; i < nv; i++ {
		var v geom.Vec3
		if _, err := fmt.Fscan(br, &v.X, &v.Y, &v.Z); err != nil {
			return nil, fmt.Errorf("mesh: vertex %d: %w", i, err)
		}
		m.Verts = append(m.Verts, v)
	}
	for i := 0; i < ne; i++ {
		el := Element{V: [4]int32{3: -1}}
		n := 3
		if dim == 3 {
			n = 4
		}
		for k := 0; k < n; k++ {
			if _, err := fmt.Fscan(br, &el.V[k]); err != nil {
				return nil, fmt.Errorf("mesh: element %d: %w", i, err)
			}
		}
		m.Elems = append(m.Elems, el)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
