package par

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, 42)
			data, from := c.Recv(1, 8)
			if data.(string) != "hi" || from != 1 {
				panic("bad reply")
			}
		} else {
			data, from := c.Recv(0, 7)
			if data.(int) != 42 || from != 0 {
				panic("bad message")
			}
			c.Send(0, 8, "hi")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvQueuesOtherTags(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, "first")
			c.Send(1, 2, "second")
		} else {
			// Receive in reverse tag order: the tag-1 message must be
			// retained, not dropped.
			d2, _ := c.Recv(0, 2)
			d1, _ := c.Recv(0, 1)
			if d1.(string) != "first" || d2.(string) != "second" {
				panic("tag queuing broken")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	var phase atomic.Int64
	err := Run(8, func(c *Comm) {
		phase.Add(1)
		c.Barrier()
		if phase.Load() != 8 {
			panic("barrier released early")
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherBcast(t *testing.T) {
	err := Run(5, func(c *Comm) {
		vals := c.Gather(0, int64(c.Rank()*c.Rank()))
		if c.Rank() == 0 {
			for r, v := range vals {
				if v.(int64) != int64(r*r) {
					panic("gather wrong")
				}
			}
		} else if vals != nil {
			panic("non-root got gather data")
		}
		got := c.Bcast(0, c.Rank()*100).(int)
		if got != 0 {
			panic("bcast wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBackToBackCollectivesDoNotCross(t *testing.T) {
	// Two consecutive gathers with different values: sequence stamping must
	// keep them separate even though fast ranks race ahead.
	err := Run(8, func(c *Comm) {
		a := c.Gather(0, int64(c.Rank()))
		b := c.Gather(0, int64(c.Rank()+1000))
		if c.Rank() == 0 {
			for r := 0; r < 8; r++ {
				if a[r].(int64) != int64(r) || b[r].(int64) != int64(r+1000) {
					panic("collectives crossed")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicPropagates(t *testing.T) {
	err := Run(3, func(c *Comm) {
		if c.Rank() == 2 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

// TestRankPanicWhilePeersWait: a rank that dies must not leave its peers
// blocked in a receive. Ranks 0 and 1 sit in a Barrier that rank 2 never
// enters; Run must still return, promptly, with rank 2's panic.
func TestRankPanicWhilePeersWait(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- Run(3, func(c *Comm) {
			if c.Rank() == 2 {
				panic("boom")
			}
			c.Barrier()
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "rank 2 panicked: boom") {
			t.Fatalf("Run returned %v, want rank 2's panic", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run still blocked 1s after rank 2 panicked")
	}
}

func TestSingleRank(t *testing.T) {
	err := Run(1, func(c *Comm) {
		c.Barrier()
		if c.AllReduceSumInt64(7) != 7 {
			panic("allreduce on 1 rank")
		}
		v := c.Bcast(0, "x").(string)
		if v != "x" {
			panic("bcast on 1 rank")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageStorm(t *testing.T) {
	// Random point-to-point traffic with mixed tags interleaved with
	// collectives: nothing may deadlock, cross-match, or be lost, and
	// receiving in a different tag order than sent must work (queuing).
	const p, nmsg, ntags = 6, 20, 3
	err := Run(p, func(c *Comm) {
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 1))
		type payload struct {
			From, Seq int
		}
		// counts[dst][tag] = how many I sent there with that tag.
		counts := make([][ntags]int, p)
		for i := 0; i < nmsg; i++ {
			dst := rng.Intn(p)
			if dst == c.Rank() {
				dst = (dst + 1) % p
			}
			tag := i % ntags
			c.Send(dst, Tag(1000+tag), payload{c.Rank(), i})
			counts[dst][tag]++
		}
		// Everyone learns the full traffic matrix.
		all := c.Gather(0, counts)
		var matrix [][][ntags]int
		if c.Rank() == 0 {
			matrix = make([][][ntags]int, p)
			for r, v := range all {
				matrix[r] = v.([][ntags]int)
			}
		}
		matrix = c.Bcast(0, matrix).([][][ntags]int)
		// Drain tags in REVERSE order to exercise the pending queue.
		for tag := ntags - 1; tag >= 0; tag-- {
			expect := 0
			for src := 0; src < p; src++ {
				expect += matrix[src][c.Rank()][tag]
			}
			for k := 0; k < expect; k++ {
				data, from := c.Recv(AnySource, Tag(1000+tag))
				pl := data.(payload)
				if pl.From != from || pl.Seq%ntags != tag {
					panic("message cross-matched")
				}
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
