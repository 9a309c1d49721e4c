//go:build paredassert

package par

import (
	"strings"
	"testing"
)

// TestCollectiveMismatchDetected breaks the MPI ordering contract on
// purpose: rank 0 enters a Barrier while rank 1 enters a Gather rooted at 0.
// Without the paredassert layer this deadlocks silently (rank 0 queues the
// mismatched Gather payload forever); with it, rank 0 panics with a
// diagnosis and Run surfaces the error. The non-root Gather only sends, so
// rank 1 exits and the test cannot hang.
func TestCollectiveMismatchDetected(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Barrier()
		} else {
			c.Gather(0, 42)
		}
	})
	if err == nil {
		t.Fatal("mismatched collectives were not detected")
	}
	if !strings.Contains(err.Error(), "collective mismatch") {
		t.Fatalf("error %v does not diagnose the collective mismatch", err)
	}
}

// TestMatchedCollectivesStillPass guards against false positives: a normal
// mixed sequence of collectives and point-to-point traffic must run clean
// under the assertion.
func TestMatchedCollectivesStillPass(t *testing.T) {
	err := Run(3, func(c *Comm) {
		c.Barrier()
		sum := c.AllReduceSumInt64(int64(c.Rank()))
		if sum != 3 {
			panic("bad sum")
		}
		if c.Rank() == 0 {
			c.Send(1, 5, "hello")
		}
		if c.Rank() == 1 {
			data, _ := c.Recv(0, 5)
			if data.(string) != "hello" {
				panic("bad payload")
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
