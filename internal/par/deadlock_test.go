package par

import (
	"strings"
	"testing"
	"time"

	"pared/internal/check"
)

// runWithin runs f on p ranks and fails the test if Run has not returned
// within a second: a deadlock must come back as an error, not a hang.
func runWithin(t *testing.T, p int, f func(c *Comm)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- Run(p, f) }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		t.Fatal("Run still blocked 1s after the ranks deadlocked")
		return nil
	}
}

// wantDeadlock requires err to be the deadlock report and to contain every
// fragment. Under paredassert the same-seq tag check may see the broken
// ordering first; its mismatch panic is an equally good diagnosis.
func wantDeadlock(t *testing.T, err error, frags ...string) {
	t.Helper()
	if err == nil {
		t.Fatal("Run returned nil for a deadlocked world")
	}
	msg := err.Error()
	if check.Enabled && strings.Contains(msg, "collective mismatch") {
		return
	}
	if !strings.Contains(msg, "par: deadlock") {
		t.Fatalf("Run returned %v, want the deadlock report", err)
	}
	for _, f := range frags {
		if !strings.Contains(msg, f) {
			t.Errorf("deadlock report lacks %q:\n%s", f, msg)
		}
	}
}

// TestDeadlockSkippedCollective: rank 2 skips an AllReduceSumInt64. The
// report names every rank's pending collective, seq and source, or that it
// returned.
func TestDeadlockSkippedCollective(t *testing.T) {
	err := runWithin(t, 4, func(c *Comm) {
		c.Barrier()
		if c.Rank() != 2 {
			c.AllReduceSumInt64(1)
		}
	})
	wantDeadlock(t, err,
		"rank 0: waiting in AllReduceSumInt64 (up) seq 2 from any rank",
		"rank 1: waiting in AllReduceSumInt64 (down) seq 2 from rank 0",
		"rank 2: returned",
		"rank 3: waiting in AllReduceSumInt64 (down) seq 2 from rank 0")
}

func doSync(c *Comm)   { deepSync(c) }
func deepSync(c *Comm) { c.Barrier() }

// TestDeadlockRankGatedBarrierTwoDeep: a Barrier reached only by rank 0,
// two calls below the rank test.
func TestDeadlockRankGatedBarrierTwoDeep(t *testing.T) {
	err := runWithin(t, 3, func(c *Comm) {
		if c.Rank() == 0 {
			doSync(c)
		}
	})
	wantDeadlock(t, err, "rank 0: waiting in Barrier (up) seq 1 from any rank", "rank 1: returned", "rank 2: returned")
}

func pathA(c *Comm) { stepA(c) }
func stepA(c *Comm) {
	c.BcastInt64(0, []int64{1})
	c.Barrier()
}
func pathB(c *Comm) { stepB(c) }
func stepB(c *Comm) { c.Barrier() }

// TestDeadlockDivergenceTwoDeep: both arms of a rank test synchronize, two
// calls deep, but with different schedules ([BcastInt64, Barrier] against
// [Barrier]) — the asymmetric rejoin.
func TestDeadlockDivergenceTwoDeep(t *testing.T) {
	err := runWithin(t, 3, func(c *Comm) {
		if c.Rank() == 0 {
			pathA(c)
		} else {
			pathB(c)
		}
	})
	wantDeadlock(t, err, "rank 0: waiting in Barrier (up) seq 2", "rank 1: waiting in Barrier (down) seq 1 from rank 0")
}

// TestDeadlockRankBoundedLoop: rank 3 runs one AllReduceSumInt64 more than
// its peers. Its up message goes to a rank 0 that has returned, so the
// report must not wait for that message to be received.
func TestDeadlockRankBoundedLoop(t *testing.T) {
	err := runWithin(t, 4, func(c *Comm) {
		for i := 0; i < 2+c.Rank()/3; i++ {
			c.AllReduceSumInt64(int64(i))
		}
	})
	wantDeadlock(t, err,
		"rank 0: returned", "rank 1: returned", "rank 2: returned",
		"rank 3: waiting in AllReduceSumInt64 (down) seq 3 from rank 0")
}

// TestDeadlockInSplitSubcomm: the root of one Split sub-communicator skips
// a BcastInt64 while its sibling sub-communicator completes its own.
func TestDeadlockInSplitSubcomm(t *testing.T) {
	err := runWithin(t, 4, func(c *Comm) {
		sub := c.Split(int64(c.Rank()%2), int64(c.Rank()))
		if c.Rank() != 1 { // world rank 1 is sub-rank 0 of {1, 3}
			sub.BcastInt64(0, []int64{7})
		}
	})
	wantDeadlock(t, err,
		"rank 0: returned", "rank 1: returned", "rank 2: returned",
		"rank 3: waiting in BcastInt64 seq 1 from rank 0 of comm")
}

// TestDeadlockNotReportedWhilePostingDrains exercises the posting path: two
// ranks flood a third with twice an inbox of messages each, so both block on
// a full inbox again and again while the receiver drains (one sender's
// stream first, parking the other's). Every rank is blocked at times, but a
// message is always in flight, so nothing may be reported. (No one-second
// bound here: under the race detector the flood alone can take longer.)
func TestDeadlockNotReportedWhilePostingDrains(t *testing.T) {
	const n = 2 * inboxCapacity
	for rep := 0; rep < 3; rep++ {
		err := Run(3, func(c *Comm) {
			if c.Rank() != 0 {
				for i := 0; i < n; i++ {
					c.Send(0, Tag(c.Rank()), nil)
				}
				return
			}
			for _, src := range []int{2, 1} {
				for i := 0; i < n; i++ {
					c.Recv(src, Tag(src))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBadPeerPanics: every call that names a root or a source validates it
// against the communicator's size, on the world comm and on a Split
// sub-comm, instead of hanging or indexing out of range.
func TestBadPeerPanics(t *testing.T) {
	calls := []struct {
		name string
		call func(c *Comm, r int)
	}{
		{"Bcast from invalid root", func(c *Comm, r int) { c.Bcast(r, 1) }},
		{"BcastInt32 from invalid root", func(c *Comm, r int) { c.BcastInt32(r, nil) }},
		{"BcastInt64 from invalid root", func(c *Comm, r int) { c.BcastInt64(r, nil) }},
		{"Gather to invalid root", func(c *Comm, r int) { c.Gather(r, 1) }},
		{"GatherInt64 to invalid root", func(c *Comm, r int) { c.GatherInt64(r, nil) }},
		{"Recv from invalid rank", func(c *Comm, r int) { c.Recv(r, 0) }},
		{"RecvFloat64s from invalid rank", func(c *Comm, r int) { c.RecvFloat64s(r, 0) }},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			// World comm of 3 ranks: 5 is no rank.
			err := runWithin(t, 3, func(c *Comm) { tc.call(c, 5) })
			if want := "par: " + tc.name + " 5"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("world comm: Run returned %v, want %q", err, want)
			}
			// Sub-comms of 2 out of 4 ranks: 2 is a world rank but no sub rank.
			err = runWithin(t, 4, func(c *Comm) { tc.call(c.Split(int64(c.Rank()%2), 0), 2) })
			if want := "par: " + tc.name + " 2"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("split comm: Run returned %v, want %q", err, want)
			}
		})
	}
}
