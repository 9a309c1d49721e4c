// Package check is the runtime invariant layer behind the paredassert build
// tag. The paper's pipeline rests on properties that unit tests probe only
// at their boundaries: meshes stay conformal through refine/coarsen, the
// partitioners' incremental weight bookkeeping matches the ground truth, the
// KL move cache selects what a full rescan would, and every rank enters
// collectives in the same order. `go test -tags paredassert ./...` turns all
// of them into executable assertions at every call site; without the tag the
// guards compile away (see Enabled).
//
// Assertion failures panic with a "paredassert:" prefix: an invariant
// violation is a bug in the engine, never a recoverable condition.
package check

import (
	"fmt"

	"pared/internal/graph"
	"pared/internal/mesh"
)

// Assertf panics with a formatted message when cond is false. Call sites
// must be guarded by Enabled so disabled builds pay nothing.
func Assertf(cond bool, format string, args ...any) {
	if !cond {
		panic("paredassert: " + fmt.Sprintf(format, args...))
	}
}

// failf panics with a located assertion message.
func failf(where, format string, args ...any) {
	panic("paredassert: " + where + ": " + fmt.Sprintf(format, args...))
}

// MeshConformal asserts that m is structurally valid and free of hanging
// nodes. The engine calls it after every adaptation pass: conformity is the
// precondition for the FEM assembly and for the paper's claim that the
// distributed fixed point equals the serial refinement.
func MeshConformal(m *mesh.Mesh, where string) {
	if err := m.Validate(); err != nil {
		failf(where, "mesh invalid: %v", err)
	}
	if err := m.CheckConforming(); err != nil {
		failf(where, "mesh not conforming: %v", err)
	}
}

// PartitionWeights asserts that the incrementally maintained part weights
// claimed by a partitioner equal the weights recomputed from scratch, and
// that every vertex is assigned to a valid part.
func PartitionWeights(g *graph.Graph, parts []int32, p int, claimed []int64, where string) {
	n := len(g.VW) // g.N()
	if len(parts) != n {
		failf(where, "parts length %d != graph order %d", len(parts), n)
	}
	if len(claimed) != p {
		failf(where, "claimed weights length %d != part count %d", len(claimed), p)
	}
	// The guards above pin the lengths; the reslices restate that as facts
	// the index proofs (and the compiler's BCE) can use.
	parts = parts[:n]
	claimed = claimed[:p]
	truth := make([]int64, p)
	for v := 0; v < n; v++ {
		pt := parts[v]
		if pt < 0 || int(pt) >= p {
			failf(where, "vertex %d assigned to invalid part %d of %d", v, pt, p)
		}
		truth[pt] += g.VW[v]
	}
	for i := 0; i < p; i++ {
		if truth[i] != claimed[i] {
			failf(where, "part %d bookkeeping drift: claimed weight %d, recomputed %d", i, claimed[i], truth[i])
		}
	}
}
