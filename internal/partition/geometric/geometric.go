// Package geometric implements the coordinate-based partitioners §3.1
// surveys: Recursive Coordinate Bisection (RCB) and inertial bisection.
// They are fast and scalable but, as Simon's comparison (the paper's [22])
// found, produce worse cuts than spectral methods — the `geo` experiment in
// internal/experiments reproduces that ranking on our meshes.
package geometric

import (
	"math"
	"sort"

	"pared/internal/geom"
	"pared/internal/graph"
)

// Method selects the splitting direction rule.
type Method int

const (
	// RCB splits orthogonally to the coordinate axis of largest extent.
	RCB Method = iota
	// Inertial splits orthogonally to the principal axis of the vertex
	// point set (the eigenvector of the largest eigenvalue of the inertia
	// tensor), which adapts to non-axis-aligned geometry.
	Inertial
)

// Partition divides the graph into p parts using vertex coordinates (one per
// graph vertex — for dual graphs, element centroids). Weights are respected
// via weighted-median splits. The recursion is written out explicitly (not
// via partition.RecursiveBisect) because each bisection needs the coordinates
// of the sub-region's vertices, which a pure-subgraph bisector cannot see.
func Partition(g *graph.Graph, coords []geom.Vec3, p int, method Method) []int32 {
	if len(coords) != g.N() {
		panic("geometric: coords length mismatch")
	}
	parts := make([]int32, g.N())
	type job struct {
		verts []int32
		p     int
		base  int32
	}
	all := make([]int32, g.N())
	for i := range all {
		all[i] = int32(i)
	}
	stack := []job{{all, p, 0}}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if j.p <= 1 {
			for _, v := range j.verts {
				parts[v] = j.base
			}
			continue
		}
		p0 := (j.p + 1) / 2
		var total int64
		for _, v := range j.verts {
			total += g.VW[v]
		}
		t0 := total * int64(p0) / int64(j.p)
		dir := splitDirection(coords, j.verts, method)
		side0, side1 := medianSplit(g, coords, j.verts, dir, t0)
		stack = append(stack,
			job{side0, p0, j.base},
			job{side1, j.p - p0, j.base + int32(p0)})
	}
	return parts
}

// splitDirection returns the unit direction along which to order vertices.
func splitDirection(coords []geom.Vec3, verts []int32, method Method) geom.Vec3 {
	if method == RCB {
		b := geom.EmptyAABB()
		for _, v := range verts {
			b.Extend(coords[v])
		}
		s := b.Size()
		switch {
		case s.X >= s.Y && s.X >= s.Z:
			return geom.Vec3{X: 1}
		case s.Y >= s.Z:
			return geom.Vec3{Y: 1}
		default:
			return geom.Vec3{Z: 1}
		}
	}
	// Inertial: principal axis of the point cloud.
	var c geom.Vec3
	for _, v := range verts {
		c = c.Add(coords[v])
	}
	c = c.Scale(1 / float64(len(verts)))
	var m [3][3]float64
	for _, v := range verts {
		d := coords[v].Sub(c)
		dv := [3]float64{d.X, d.Y, d.Z}
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				m[a][b] += dv[a] * dv[b]
			}
		}
	}
	ev := principalAxis(m)
	if ev.Norm() == 0 {
		return geom.Vec3{X: 1}
	}
	return ev.Scale(1 / ev.Norm())
}

// principalAxis returns the eigenvector of the largest eigenvalue of a
// symmetric 3×3 matrix, via cyclic Jacobi rotations.
func principalAxis(m [3][3]float64) geom.Vec3 {
	v := [3][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for sweep := 0; sweep < 32; sweep++ {
		off := math.Abs(m[0][1]) + math.Abs(m[0][2]) + math.Abs(m[1][2])
		if off < 1e-14 {
			break
		}
		for p := 0; p < 2; p++ {
			for q := p + 1; q < 3; q++ {
				if math.Abs(m[p][q]) < 1e-18 {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < 3; k++ {
					mkp, mkq := m[k][p], m[k][q]
					m[k][p] = c*mkp - s*mkq
					m[k][q] = s*mkp + c*mkq
				}
				for k := 0; k < 3; k++ {
					mpk, mqk := m[p][k], m[q][k]
					m[p][k] = c*mpk - s*mqk
					m[q][k] = s*mpk + c*mqk
				}
				for k := 0; k < 3; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p] = c*vkp - s*vkq
					v[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
	best := 0
	for k := 1; k < 3; k++ {
		if m[k][k] > m[best][best] {
			best = k
		}
	}
	return geom.Vec3{X: v[0][best], Y: v[1][best], Z: v[2][best]}
}

// medianSplit orders verts by projection onto dir and fills side 0 to ~t0
// weight.
func medianSplit(g *graph.Graph, coords []geom.Vec3, verts []int32, dir geom.Vec3, t0 int64) (side0, side1 []int32) {
	order := append([]int32(nil), verts...)
	sort.Slice(order, func(i, j int) bool {
		a, b := coords[order[i]].Dot(dir), coords[order[j]].Dot(dir)
		if a < b {
			return true
		}
		if b < a {
			return false
		}
		return order[i] < order[j]
	})
	var w0 int64
	for _, v := range order {
		if w0 < t0 {
			side0 = append(side0, v)
			w0 += g.VW[v]
		} else {
			side1 = append(side1, v)
		}
	}
	// Guarantee both sides nonempty.
	if len(side1) == 0 && len(side0) > 1 {
		side1 = append(side1, side0[len(side0)-1])
		side0 = side0[:len(side0)-1]
	}
	return side0, side1
}
