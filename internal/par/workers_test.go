package par

import (
	"runtime"
	"testing"

	"pared/internal/kern"
)

// workersIn runs Run(p) and returns what kern.Workers() read on every rank.
func workersIn(t *testing.T, p int) []int {
	t.Helper()
	got := make([]int, p)
	if err := Run(p, func(c *Comm) { got[c.Rank()] = kern.Workers() }); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestKernWorkersShareTheCores: inside Run(p) a kernel gets GOMAXPROCS ÷ p
// workers (at least one), nested Runs add their ranks up, and Run gives the
// cores back when it returns — normally, after a rank panic and after a
// deadlock report.
func TestKernWorkersShareTheCores(t *testing.T) {
	for _, g := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(g))
			released := func(after string) {
				t.Helper()
				if w := kern.Workers(); w != g {
					t.Errorf("GOMAXPROCS=%d: kern.Workers() = %d after %s, want %d", g, w, after, g)
				}
			}
			released("no Run")
			for _, p := range []int{1, 2, 4, 8} {
				for r, w := range workersIn(t, p) {
					if want := max(1, g/p); w != want {
						t.Errorf("GOMAXPROCS=%d Run(%d): rank %d reads kern.Workers() = %d, want %d", g, p, r, w, want)
					}
				}
				released("a normal return")
			}

			var nested []int
			err := Run(4, func(c *Comm) {
				if c.Rank() == 0 {
					nested = workersIn(t, 2)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, w := range nested {
				if want := max(1, g/6); w != want {
					t.Errorf("GOMAXPROCS=%d Run(2) in Run(4): rank %d reads kern.Workers() = %d, want %d", g, r, w, want)
				}
			}
			released("a nested Run")

			if err := Run(3, func(c *Comm) {
				if c.Rank() == 1 {
					panic("boom")
				}
				c.Barrier()
			}); err == nil {
				t.Fatal("Run returned nil after a rank panicked")
			}
			released("a rank panic")

			wantDeadlock(t, runWithin(t, 2, func(c *Comm) {
				if c.Rank() == 0 {
					c.Barrier()
				}
			}))
			released("a deadlock report")
		}()
	}
}
