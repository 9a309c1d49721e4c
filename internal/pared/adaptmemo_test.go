package pared

import (
	"fmt"
	"slices"
	"testing"

	"pared/internal/check"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/refine"
)

// countEst counts one rank's evaluations of an estimator. It is a pointer,
// so comparable: passed again, the refiner's memo serves it.
type countEst struct {
	inner refine.Estimator
	calls int64
}

func (e *countEst) Indicator(f *forest.Forest, id forest.NodeID) float64 {
	e.calls++
	return e.inner.Indicator(f, id)
}

// TestAdaptMemoAcrossPasses runs, after refining near one corner, three
// Adapt passes with coarsening toward the other, with a forced Rebalance
// after the first, and then passes until one changes nothing on any rank. It
// runs once with one estimator shared by every pass and once with an
// uncomparable wrapper of it, whose values serve one call only: the leaf
// meshes and owner maps must be equal, and the pass after the fixed point
// evaluates nothing with the shared estimator (and every leaf with the
// wrapper) — without paredassert, whose oracle evaluates again every value
// the memo reuses.
func TestAdaptMemoAcrossPasses(t *testing.T) {
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	from, to := cornerEst(geom.Vec3{X: 1, Y: 1}), cornerEst(geom.Vec3{X: -1, Y: -1})
	type outcome struct {
		leaves          [][4]forest.VertexID
		owner           []int32
		coarsened, last int64 // global un-bisections; evaluations after the fixed point
	}
	run := func(p int, wrap bool) (out outcome) {
		err := par.Run(p, func(c *par.Comm) {
			e := Bootstrap(c, m)
			for i := 0; i < 3; i++ {
				e.Adapt(from, 0.8, 0, 8)
			}
			cnt := &countEst{inner: to}
			var est refine.Estimator = cnt
			if wrap {
				est = refine.EstimatorFunc(cnt.Indicator)
			}
			coarsened := 0
			pass := func() int64 {
				st := e.Adapt(est, 0.8, 0.2, 8)
				coarsened += st.LocalCoarsened
				return c.AllReduceSumInt64(int64(st.LocalRefined + st.LocalCoarsened))
			}
			pass()
			e.Rebalance(true)
			pass()
			pass()
			for i := 0; pass() != 0; i++ {
				if i == 10 {
					panic("no fixed point in 10 more passes")
				}
			}
			calls := cnt.calls
			if pass() != 0 {
				panic("the pass after the fixed point changed the mesh")
			}
			last := c.AllReduceSumInt64(cnt.calls - calls)
			total := c.AllReduceSumInt64(int64(coarsened))
			g := e.GatherForest(0)
			if c.Rank() == 0 {
				out = outcome{g.CanonicalLeaves(), slices.Clone(e.Owner), total, last}
			}
		})
		if err != nil {
			t.Fatalf("p=%d wrapped=%v: %v", p, wrap, err)
		}
		return out
	}
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			shared, wrapped := run(p, false), run(p, true)
			t.Logf("%d leaves, %d un-bisections; after the fixed point %d evaluations shared, %d wrapped",
				len(shared.leaves), shared.coarsened, shared.last, wrapped.last)
			if shared.coarsened == 0 {
				t.Fatal("no pass coarsened: the test exercises no freed slot")
			}
			if !slices.Equal(shared.leaves, wrapped.leaves) {
				t.Errorf("leaf meshes differ: %d leaves shared, %d wrapped", len(shared.leaves), len(wrapped.leaves))
			}
			if !slices.Equal(shared.owner, wrapped.owner) {
				t.Errorf("owner maps differ")
			}
			// Under paredassert the memo re-evaluates every value it reuses.
			if shared.last != 0 && !check.Enabled {
				t.Errorf("the pass after the fixed point made %d evaluations with the shared estimator, want 0", shared.last)
			}
			if wrapped.last < int64(len(wrapped.leaves))/2 {
				t.Errorf("the pass after the fixed point made %d evaluations with the wrapper over %d leaves", wrapped.last, len(wrapped.leaves))
			}
		})
	}
}
