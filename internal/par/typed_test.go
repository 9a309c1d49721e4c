package par

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestGatherInt64RootNotZero(t *testing.T) {
	const p = 3
	err := Run(p, func(c *Comm) {
		out := c.GatherInt64(2, []int64{int64(c.Rank()) << 32})
		if c.Rank() != 2 {
			if out != nil {
				panic("non-root got a gather result")
			}
			return
		}
		for r := 0; r < p; r++ {
			if out[r][0] != int64(r)<<32 {
				panic(fmt.Sprintf("rank %d value %d", r, out[r][0]))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastInt32(t *testing.T) {
	const p = 4
	err := Run(p, func(c *Comm) {
		var xs []int32
		if c.Rank() == 1 {
			xs = []int32{7, 8, 9}
		}
		got := c.BcastInt32(1, xs)
		if len(got) != 3 || got[0] != 7 || got[2] != 9 {
			panic(fmt.Sprintf("rank %d got %v", c.Rank(), got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallBytes(t *testing.T) {
	const p = 4
	err := Run(p, func(c *Comm) {
		send := make([][]byte, p)
		for i := range send {
			send[i] = []byte(fmt.Sprintf("from %d to %d", c.Rank(), i))
		}
		recv := c.AlltoallBytes(send)
		for src, buf := range recv {
			want := fmt.Sprintf("from %d to %d", src, c.Rank())
			if !bytes.Equal(buf, []byte(want)) {
				panic(fmt.Sprintf("rank %d from %d: %q != %q", c.Rank(), src, buf, want))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveScanInt64(t *testing.T) {
	const p = 5
	err := Run(p, func(c *Comm) {
		// Distinct per-rank values so a mis-ordered fold is visible: rank r
		// contributes 10^r, so the prefix at rank r reads as r ones in decimal.
		val := int64(1)
		for i := 0; i < c.Rank(); i++ {
			val *= 10
		}
		got := c.ExclusiveScanInt64(val)
		want := int64(0)
		v := int64(1)
		for i := 0; i < c.Rank(); i++ {
			want += v
			v *= 10
		}
		if got != want {
			panic(fmt.Sprintf("rank %d: exscan = %d, want %d", c.Rank(), got, want))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveScanInt64SingleRank(t *testing.T) {
	err := Run(1, func(c *Comm) {
		if got := c.ExclusiveScanInt64(42); got != 0 {
			panic(fmt.Sprintf("exscan on one rank = %d, want 0", got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSumInt64(t *testing.T) {
	const p = 4
	err := Run(p, func(c *Comm) {
		got := c.AllReduceSumInt64(int64(c.Rank() + 1))
		if got != p*(p+1)/2 {
			panic(fmt.Sprintf("rank %d: sum = %d", c.Rank(), got))
		}
		// A second round on the reused scratch lanes.
		if got := c.AllReduceSumInt64(7); got != 7*p {
			panic(fmt.Sprintf("rank %d: second sum = %d", c.Rank(), got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherInt32(t *testing.T) {
	const p = 4
	err := Run(p, func(c *Comm) {
		xs := make([]int32, c.Rank()+1)
		for i := range xs {
			xs[i] = int32(c.Rank()*10 + i)
		}
		out := c.AllGatherInt32(xs)
		for r := 0; r < p; r++ {
			if len(out[r]) != r+1 {
				panic(fmt.Sprintf("rank %d: source %d length %d", c.Rank(), r, len(out[r])))
			}
			for i, v := range out[r] {
				if v != int32(r*10+i) {
					panic(fmt.Sprintf("rank %d: out[%d][%d] = %d", c.Rank(), r, i, v))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherInt64(t *testing.T) {
	const p = 3
	err := Run(p, func(c *Comm) {
		out := c.AllGatherInt64([]int64{int64(c.Rank()) << 40})
		for r := 0; r < p; r++ {
			if out[r][0] != int64(r)<<40 {
				panic(fmt.Sprintf("rank %d: source %d value %d", c.Rank(), r, out[r][0]))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTypedInterleavesWithUntyped drives typed and generic collectives
// back-to-back in the same order on every rank: the shared sequence counter
// must keep them from cross-matching.
func TestTypedInterleavesWithUntyped(t *testing.T) {
	const p = 3
	err := Run(p, func(c *Comm) {
		for round := 0; round < 5; round++ {
			got := c.BcastInt32(0, []int32{int32(round)})
			if got[0] != int32(round) {
				panic("typed bcast mismatch")
			}
			if v := c.Bcast(0, round).(int); v != round {
				panic("boxed bcast mismatch")
			}
			if all := c.Gather(0, c.Rank()); c.Rank() == 0 && all[p-1].(int) != p-1 {
				panic("boxed gather mismatch")
			}
			if v := c.ExclusiveScanInt64(1); v != int64(c.Rank()) {
				panic("exscan mismatch")
			}
			if v := c.AllReduceSumInt64(2); v != 2*p {
				panic("typed allreduce mismatch")
			}
			outs := c.GatherInt64(0, []int64{int64(c.Rank())})
			if c.Rank() == 0 {
				for r := 0; r < p; r++ {
					if outs[r][0] != int64(r) {
						panic("typed gather mismatch")
					}
				}
			}
			// The float lane between boxed traffic on the same (pair, tag):
			// per-pair FIFO order must hold across the two kinds.
			const tag = Tag(7)
			next, prev := (c.Rank()+1)%p, (c.Rank()+p-1)%p
			c.Send(next, tag, round)
			c.SendFloat64s(next, tag, []float64{float64(round), 0.5})
			c.Send(next, tag, -round)
			if v, _ := c.Recv(prev, tag); v.(int) != round {
				panic("boxed message before the float lane mismatch")
			}
			if xs, from := c.RecvFloat64s(prev, tag); from != prev || len(xs) != 2 || xs[0] != float64(round) || xs[1] != 0.5 {
				panic("float lane mismatch")
			}
			if v, _ := c.Recv(prev, tag); v.(int) != -round {
				panic("boxed message after the float lane mismatch")
			}
			sum := []float64{1, float64(c.Rank())}
			c.AllReduceSumFloat64s(sum)
			if sum[0] != p || sum[1] != p*(p-1)/2 {
				panic("float allreduce mismatch")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllReduceSumFloat64sRankOrder feeds AllReduceSumFloat64s inputs whose
// sum depends on the association (1e16 + 1 − 1e16 + 1 … is 1, 2 or 0
// depending on the order) and requires every rank to hold, bit for bit, the
// left fold from +0 in ascending rank order — on the world comm and on a
// Split child whose rank numbering reverses the parent's.
func TestAllReduceSumFloat64sRankOrder(t *testing.T) {
	val := func(rank, word int) float64 {
		switch (rank + word) % 4 {
		case 0:
			return 1e16
		case 2:
			return -1e16
		}
		return 1 + float64(word)/3
	}
	check := func(c *Comm, where string, k int) {
		vals := make([]float64, k)
		for w := range vals {
			vals[w] = val(c.Rank(), w)
		}
		c.AllReduceSumFloat64s(vals)
		for w, got := range vals {
			want := 0.0
			for r := 0; r < c.Size(); r++ {
				want += val(r, w)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				panic(fmt.Sprintf("%s p=%d k=%d rank %d word %d: got %v, want the rank-order fold %v",
					where, c.Size(), k, c.Rank(), w, got, want))
			}
		}
	}
	for _, p := range []int{1, 2, 3, 8} {
		err := Run(p, func(c *Comm) {
			child := c.Split(int64(c.Rank()%2), int64(-c.Rank()))
			for round := 0; round < 3; round++ { // scratch reuse across rounds
				for _, k := range []int{1, 2, 4} {
					check(c, "world", k)
					check(child, "split", k)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	err := Run(2, func(c *Comm) { c.AllReduceSumFloat64s(make([]float64, 5)) })
	if err == nil || !strings.Contains(err.Error(), "at most 4 words") {
		t.Fatalf("5-word reduction: got %v, want the width panic", err)
	}
}

// TestAllReduceSumFloat64sLengthMismatch: ranks that pass vectors of
// different lengths are a caller error, and rank 0 must say so instead of
// returning a sum it never reduced (a shorter root) or one that read a stale
// scratch word past the peer's slice (a longer root). Both directions are
// planted at p = 2, and a longer root on a Split child whose rank 0 is world
// rank 3.
func TestAllReduceSumFloat64sLengthMismatch(t *testing.T) {
	for _, tc := range []struct{ root, peer int }{{2, 3}, {3, 2}} {
		err := runWithin(t, 2, func(c *Comm) {
			n := tc.root
			if c.Rank() == 1 {
				n = tc.peer
			}
			c.AllReduceSumFloat64s(make([]float64, n))
		})
		want := fmt.Sprintf("par: AllReduceSumFloat64s: rank 1 sent %d words, rank 0 reduces %d", tc.peer, tc.root)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("lengths %d and %d: Run returned %v, want %q", tc.root, tc.peer, err, want)
		}
	}
	err := runWithin(t, 4, func(c *Comm) {
		sub := c.Split(0, int64(-c.Rank()))
		sub.AllReduceSumFloat64s(make([]float64, 1+c.Rank()/3))
	})
	// Any of the three peers may arrive first; each sent one word.
	if want := " sent 1 words, rank 0 reduces 2"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("split comm: Run returned %v, want %q", err, want)
	}
}

// BenchmarkScanTyped compares a boxed exclusive scan (Gather + Bcast of `any`
// values, the pre-typed idiom) against ExclusiveScanInt64 + AllReduceSumInt64
// for the SFC rebalance shape: one scalar scan plus one scalar sum per epoch.
// The typed lane must not box.
func BenchmarkScanTyped(b *testing.B) {
	const p = 8
	b.Run("boxed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := Run(p, func(c *Comm) {
				for round := 0; round < 64; round++ {
					vals := c.Gather(0, int64(c.Rank()))
					var prefixes []int64
					if c.Rank() == 0 {
						prefixes = make([]int64, p+1)
						for r := 1; r <= p; r++ {
							prefixes[r-1+1] = prefixes[r-1] + vals[r-1].(int64)
						}
					}
					prefixes = c.Bcast(0, prefixes).([]int64)
					_ = prefixes[c.Rank()]
					_ = prefixes[p]
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("typed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := Run(p, func(c *Comm) {
				for round := 0; round < 64; round++ {
					_ = c.ExclusiveScanInt64(int64(c.Rank()))
					_ = c.AllReduceSumInt64(int64(c.Rank()))
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGatherTyped compares the boxed Gather against GatherInt64 for the
// rebalance-report shape (one flat weight slice per rank per epoch): the
// typed lane must not allocate per message.
func BenchmarkGatherTyped(b *testing.B) {
	const p, n = 8, 1024
	payload := make([][]int64, p)
	for i := range payload {
		payload[i] = make([]int64, n)
	}
	b.Run("boxed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := Run(p, func(c *Comm) {
				for round := 0; round < 16; round++ {
					c.Gather(0, payload[c.Rank()])
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("typed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := Run(p, func(c *Comm) {
				for round := 0; round < 16; round++ {
					c.GatherInt64(0, payload[c.Rank()])
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestTypedZeroLengthVectors drives the slice-carrying collectives with
// zero-length payloads: empty and nil slices are legitimate messages (a rank
// can own no elements after a migration), so they must round-trip without
// being confused with "no message" and without disturbing the sequence
// counter for the rounds that follow.
func TestTypedZeroLengthVectors(t *testing.T) {
	const p = 3
	err := Run(p, func(c *Comm) {
		// Rank 1 contributes an empty-but-allocated slice, the rest nil.
		var xs []int32
		if c.Rank() == 1 {
			xs = make([]int32, 0)
		}
		out := c.AllGatherInt32(xs)
		if len(out) != p {
			panic(fmt.Sprintf("allgather returned %d sources", len(out)))
		}
		for r, s := range out {
			if len(s) != 0 {
				panic(fmt.Sprintf("source %d delivered %d elements, want 0", r, len(s)))
			}
		}
		out64 := c.AllGatherInt64(nil)
		for r, s := range out64 {
			if len(s) != 0 {
				panic(fmt.Sprintf("int64 source %d delivered %d elements", r, len(s)))
			}
		}
		if got := c.GatherInt64(0, nil); c.Rank() == 0 {
			for r, s := range got {
				if len(s) != 0 {
					panic(fmt.Sprintf("gather source %d delivered %d elements", r, len(s)))
				}
			}
		}
		if got := c.BcastInt32(0, []int32{}); len(got) != 0 {
			panic(fmt.Sprintf("bcast of empty slice delivered %d elements", len(got)))
		}
		// An empty float lane is a message too (a neighbour list can be
		// empty-but-present), and a zero-word reduction is a plain round.
		c.SendFloat64s((c.Rank()+1)%p, 3, nil)
		if xs, from := c.RecvFloat64s(AnySource, 3); len(xs) != 0 || from != (c.Rank()+p-1)%p {
			panic(fmt.Sprintf("empty float lane delivered %d elements from %d", len(xs), from))
		}
		c.AllReduceSumFloat64s(nil)
		// The counter must still line up: a normal round after the empty ones.
		if v := c.AllReduceSumInt64(1); v != p {
			panic(fmt.Sprintf("follow-up sum = %d, want %d", v, p))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTypedSingleRank pins the p=1 degenerate case for every typed
// collective: no partner ranks means no messages at all, so each call must
// return its own argument (or the identity) immediately instead of waiting
// on a receive that can never arrive.
func TestTypedSingleRank(t *testing.T) {
	err := Run(1, func(c *Comm) {
		if got := c.ExclusiveScanInt64(99); got != 0 {
			panic(fmt.Sprintf("exscan = %d, want 0", got))
		}
		if got := c.AllReduceSumInt64(41); got != 41 {
			panic(fmt.Sprintf("sum = %d, want 41", got))
		}
		if mx, sum := c.AllReduceMaxSum(-7); mx != -7 || sum != -7 {
			panic(fmt.Sprintf("maxsum = (%d, %d), want (-7, -7)", mx, sum))
		}
		xs := []int32{3, 1, 4}
		if out := c.AllGatherInt32(xs); len(out) != 1 || &out[0][0] != &xs[0] {
			panic("single-rank allgather must alias the local slice")
		}
		ys := []int64{1 << 40}
		if out := c.AllGatherInt64(ys); len(out) != 1 || out[0][0] != 1<<40 {
			panic("single-rank int64 allgather mismatch")
		}
		if out := c.GatherInt64(0, ys); len(out) != 1 || &out[0][0] != &ys[0] {
			panic("single-rank gather must alias the local slice")
		}
		if got := c.BcastInt32(0, xs); &got[0] != &xs[0] {
			panic("single-rank bcast must return the argument")
		}
		if recv := c.AlltoallBytes([][]byte{[]byte("self")}); string(recv[0]) != "self" {
			panic("single-rank alltoall mismatch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallBytesLengthMismatchPanics pins the length contract: send must
// have exactly one buffer per rank, and a wrong-length send panics before any
// message leaves the rank (so the failure is a loud error from Run, not a
// cross-rank deadlock). Every rank passes the bad slice, so all of them
// panic symmetrically and Run collects the errors.
func TestAlltoallBytesLengthMismatchPanics(t *testing.T) {
	const p = 3
	err := Run(p, func(c *Comm) {
		c.AlltoallBytes(make([][]byte, p-1))
	})
	if err == nil {
		t.Fatal("AlltoallBytes accepted a send slice with the wrong length")
	}
	if !strings.Contains(err.Error(), "one buffer per rank") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestAlltoallBytesNilEntries pins the documented nil passthrough: a nil
// buffer for a peer is delivered as nil, distinguishable from an empty one.
func TestAlltoallBytesNilEntries(t *testing.T) {
	const p = 2
	err := Run(p, func(c *Comm) {
		send := make([][]byte, p)
		send[c.Rank()] = []byte{byte(c.Rank())}
		recv := c.AlltoallBytes(send) // peer entry stays nil
		for src, buf := range recv {
			if src == c.Rank() {
				if len(buf) != 1 || buf[0] != byte(c.Rank()) {
					panic("self entry clobbered")
				}
			} else if buf != nil {
				panic(fmt.Sprintf("nil buffer from %d arrived non-nil (%v)", src, buf))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
