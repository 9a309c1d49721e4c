//go:build paredassert

package pared

import (
	"strings"
	"testing"

	"pared/internal/geom"
	"pared/internal/meshgen"
	"pared/internal/par"
)

// TestPatchedGAssertionCatchesCorruptBaseline corrupts the delta baseline of
// one rank between two rebalances: its next report is off by one, rank 0's
// patched G drifts from the scratch build, and the paredassert cross-check
// must turn that into an error from par.Run. Compiles only under the tag.
func TestPatchedGAssertionCatchesCorruptBaseline(t *testing.T) {
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	for _, cfg := range []Config{{}, {DistRefine: true}} {
		err := par.Run(4, func(c *par.Comm) {
			e := BootstrapWith(c, m, cfg)
			e.Adapt(est, 0.8, 0, 7)
			e.Rebalance(true)
			e.Adapt(est, 0.7, 0, 7)
			if c.Rank() == 2 {
				e.lastVW[e.F.Roots()[0]]++
			}
			e.Rebalance(true)
		})
		if err == nil || !strings.Contains(err.Error(), "paredassert: pared: patched G VW[") {
			t.Errorf("DistRefine=%v: corrupted lastVW gave %v, want the patched-G assertion", cfg.DistRefine, err)
		}
	}
}
