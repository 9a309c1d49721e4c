package par

import "testing"

// benchSubgroup times b.N collective rounds on split comms (two groups of 4)
// with the timer controlled from inside the rank goroutines: one warmup round
// sizes the lazily allocated scratch and pending queues, then rank 0 resets
// the timer behind a barrier so only steady-state rounds are measured. The
// scalar subgroup collectives must stay zero-alloc in that window (the
// alloc-guard pins them), which is what the per-Comm send scratch buys.
func benchSubgroup(b *testing.B, body func(c, sub *Comm)) {
	const p = 8
	b.ReportAllocs()
	err := Run(p, func(c *Comm) {
		sub := c.Split(int64(c.Rank()/4), 0)
		body(c, sub) // warmup: grow scratch and pending capacity
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			body(c, sub)
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSplit measures Comm.Split itself in steady state (comm and rank
// table construction plus the color/key exchange); the count is pinned in
// BENCH_allocs.json so Split stays cheap enough to call per epoch.
func BenchmarkSplit(b *testing.B) {
	const p = 8
	b.ReportAllocs()
	err := Run(p, func(c *Comm) {
		c.Split(int64(c.Rank()/4), 0)
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			c.Split(int64(c.Rank()/4), int64(c.Rank()%4))
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSubgroupScalars runs the fused scalar collectives on a split comm;
// pinned zero-alloc (scratch-reuse on the split comm).
func BenchmarkSubgroupScalars(b *testing.B) {
	benchSubgroup(b, func(c, sub *Comm) {
		v := int64(sub.Rank())
		sub.AllReduceSumInt64(v)
		sub.AllReduceMaxSum(v)
		sub.ExclusiveScanInt64(v)
	})
}

// BenchmarkAllReduceFloat64s runs the distributed CG's two per-iteration
// reductions (one word, then two) on the world comm and on a split comm;
// pinned zero-alloc.
func BenchmarkAllReduceFloat64s(b *testing.B) {
	benchSubgroup(b, func(c, sub *Comm) {
		v := [2]float64{float64(c.Rank()), 1}
		c.AllReduceSumFloat64s(v[:1])
		sub.AllReduceSumFloat64s(v[:2])
	})
}

// BenchmarkSubgroupAllGatherMoves runs the move exchange on a split comm with
// caller scratch and the documented two-buffer reuse pattern; pinned
// zero-alloc.
func BenchmarkSubgroupAllGatherMoves(b *testing.B) {
	const lanes = 64
	b.ReportAllocs()
	err := Run(8, func(c *Comm) {
		sub := c.Split(int64(c.Rank()/4), 0)
		ping := make([]int64, lanes)
		pong := make([]int64, lanes)
		views := make([][]int64, sub.Size())
		out := make([]int64, 0, 2*lanes*sub.Size())
		out = sub.AllGatherMoves(ping, views, out)
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			buf := ping
			if i%2 == 1 {
				buf = pong
			}
			out = sub.AllGatherMoves(buf, views, out)
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSubgroupBcast contrasts the boxed Bcast (interface boxing per
// message) with BcastInt32 (typed lane) on a split comm; the typed leg is
// pinned zero-alloc.
func BenchmarkSubgroupBcast(b *testing.B) {
	xs := make([]int32, 256)
	b.Run("boxed", func(b *testing.B) {
		benchSubgroup(b, func(c, sub *Comm) {
			got := sub.Bcast(0, xs).([]int32)
			_ = got[len(got)-1]
		})
	})
	b.Run("typed", func(b *testing.B) {
		benchSubgroup(b, func(c, sub *Comm) {
			got := sub.BcastInt32(0, xs)
			_ = got[len(got)-1]
		})
	})
}
