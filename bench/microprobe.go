package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pared/internal/kern"
	"pared/internal/par"
)

// The par and kern probes do not depend on a workload: they run once per
// invocation, in a par.Run of their own at the benchmark's rank count, and
// their numbers are reported under every workload the invocation covers
// (the result line has no run-wide slot).

const (
	parIters   = 2000 // latency loops
	parBulk    = 200  // loops that move 64 KiB lanes or build communicators
	bulkBytes  = 64 << 10
	words1k    = 1024
	moveWords  = 64 // AllGatherMoves lane: 32 two-word proposals per rank
	fallbackL3 = 32 << 20
)

const tagProbe par.Tag = 900

// microProbes returns the run-wide par.* and kern.* metrics.
func microProbes() metricSet {
	m := metricSet{}
	probePar(m)
	probeKern(m)
	return m
}

func probePar(m metricSet) {
	const p = benchRanks

	t0 := time.Now()
	for i := 0; i < parBulk; i++ {
		if err := par.Run(p, func(*par.Comm) {}); err != nil {
			panic(err)
		}
	}
	m.set(perLayer, "par.run_spawn_us", us(time.Since(t0))/parBulk)

	// lap runs body iters times on every rank between two barriers and
	// returns rank 0's time per iteration, with the process-wide mallocs per
	// iteration. Only rank 0's return value is meaningful.
	lap := func(c *par.Comm, iters int, body func(i int)) (perIterUs, allocs float64) {
		var ms0, ms1 runtime.MemStats
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&ms0)
		}
		c.Barrier()
		t := time.Now()
		for i := 0; i < iters; i++ {
			body(i)
		}
		c.Barrier()
		d := time.Since(t)
		if c.Rank() == 0 {
			runtime.ReadMemStats(&ms1)
		}
		return us(d) / float64(iters), float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
	}

	err := par.Run(p, func(c *par.Comm) {
		me := c.Rank()
		set := func(name string, v float64) {
			if me == 0 {
				m.set(perLayer, name, v)
			}
		}
		pingPong := func(payload any) func(int) {
			return func(int) {
				switch me {
				case 0:
					c.Send(1, tagProbe, payload)
					c.Recv(1, tagProbe)
				case 1:
					c.Recv(0, tagProbe)
					c.Send(0, tagProbe, payload)
				}
			}
		}
		t, _ := lap(c, parIters, pingPong(int64(1)))
		set("par.p2p_us", t/2)
		// par hands over slice headers, not copies: this is the per-message
		// cost expressed per byte, the rate a 64 KiB migration lane sees.
		t, _ = lap(c, parIters, pingPong(make([]byte, bulkBytes)))
		set("par.p2p_64k_mb_s", bulkBytes/(t/2))

		t, _ = lap(c, parIters, func(int) { c.Barrier() })
		set("par.barrier_us", t)

		t, a := lap(c, parIters, func(i int) { c.AllReduceSumInt64(int64(i)) })
		set("par.allreduce_us", t)
		set("par.allreduce_allocs", a)
		// The solver's reduction: Gather and Bcast of a boxed float64.
		t, a = lap(c, parIters, func(i int) {
			vals := c.Gather(0, float64(i))
			s := 0.0
			for _, v := range vals {
				s += v.(float64)
			}
			_ = c.Bcast(0, s).(float64)
		})
		set("par.allreduce_boxed_us", t)
		set("par.allreduce_boxed_allocs", a)

		// Gather and Bcast are one-sided: senders return at once, so a bare
		// loop measures a message storm, not a collective. Each call is closed
		// by a barrier, and the number includes it (compare par.barrier_us).
		xs := make([]int64, words1k)
		t, _ = lap(c, parIters, func(int) { c.GatherInt64(0, xs); c.Barrier() })
		set("par.gather_1k_us", t)
		t, _ = lap(c, parIters, func(int) { c.BcastInt64(0, xs); c.Barrier() })
		set("par.bcast_1k_us", t)
		t, _ = lap(c, parIters, func(int) { c.AllGatherInt64(xs) })
		set("par.allgather_1k_us", t)

		// Two send buffers alternate, as the sweep in core/distrefine.go does.
		moves := [2][]int64{make([]int64, moveWords), make([]int64, moveWords)}
		views := make([][]int64, p)
		var out []int64
		t, _ = lap(c, parIters, func(i int) { out = c.AllGatherMoves(moves[i&1], views, out) })
		set("par.allgather_moves_us", t)

		lanes := make([][]byte, p)
		for i := range lanes {
			if i != me {
				lanes[i] = make([]byte, bulkBytes)
			}
		}
		t, _ = lap(c, parBulk, func(int) { c.AlltoallBytes(lanes) })
		set("par.alltoall_64k_mb_s", float64(p*(p-1)*bulkBytes)/t)

		t, _ = lap(c, parBulk, func(int) { c.Split(int64(me/4), int64(me)) })
		set("par.split_us", t)
	})
	if err != nil {
		panic(err)
	}
}

func probeKern(m metricSet) {
	m.set(perLayer, "kern.workers", float64(kern.Workers()))

	const n, grain, rounds = 1 << 16, 256, 200
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		kern.For(n, grain, func(lo, hi int) {})
	}
	m.set(perLayer, "kern.chunk_overhead_ns", float64(time.Since(t0))/float64(rounds*kern.NumChunks(n, grain)))

	// Bandwidth needs an array no cache holds: four times the last level.
	llc := lastLevelCacheBytes()
	xs := make([]float64, 4*llc/8)
	for i := range xs {
		xs[i] = 1
	}
	var best time.Duration
	for pass := 0; pass < 3; pass++ {
		t := time.Now()
		s := kern.Sum(len(xs), 1<<14, func(lo, hi int) float64 {
			acc := 0.0
			for _, x := range xs[lo:hi] {
				acc += x
			}
			return acc
		})
		d := time.Since(t)
		if int(s) != len(xs) { // a sum of ones is exact
			panic("bench: kern.Sum returned a wrong sum")
		}
		if pass == 0 || d < best {
			best = d
		}
	}
	m.set(perLayer, "kern.sum_gb_s", float64(8*len(xs))/float64(best))
	m.set(perLayer, "kern.sum_array_mb", float64(8*len(xs))/1e6)
	m.set(perLayer, "kern.llc_mb", float64(llc)/1e6)
}

// lastLevelCacheBytes reads the size of cpu0's largest cache from sysfs and
// falls back to 32 MiB where it cannot.
func lastLevelCacheBytes() int {
	best := 0
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.Atoi(s); err == nil && v*mult > best {
			best = v * mult
		}
	}
	if best == 0 {
		return fallbackL3
	}
	return best
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
