package main

import (
	"runtime"
	"time"

	"pared/internal/core"
	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/graph"
	"pared/internal/la"
	"pared/internal/mesh"
	"pared/internal/par"
	"pared/internal/pared"
	"pared/internal/partition"
	"pared/internal/partition/sfc"
	"pared/internal/refine"
)

// coarsenTo is where the graph probe stops contracting: core's default
// Config.CoarsenTo.
const coarsenTo = 96

// spmvCalls is how many SpMVs one probe epoch times.
const spmvCalls = 50

// prober replays one epoch's layer work serially, from outside the engine.
// On a probe epoch every rank enters before and after (they gather the
// forest, which is collective); rank 0 alone replays, between epochs and
// outside every epoch span, while the others wait in a barrier. All state
// below belongs to rank 0.
type prober struct {
	w      *workload
	geo    geometry
	coarse *mesh.Mesh
	base   time.Time

	fBefore     *forest.Forest
	ownerBefore []int32
	hier        *core.Hierarchy   // kept across probe epochs, like the engine's
	distHier    []*core.Hierarchy // one per rank of the collective replay
	contract    graph.ContractScratch
	sortScratch sfc.SortScratch
	assign      sfc.AssignScratch

	ms     map[string]float64 // Σ over probe epochs of each probe.* span, ms
	n      map[string]float64 // counts
	spans  []span
	ns     int64   // time spent in before/after between the first epoch's start and the last one's end
	heapMB float64 // peak HeapInuse seen at probe points
}

func newProber(w *workload, geo geometry) *prober {
	pr := &prober{w: w, geo: geo, hier: core.NewHierarchy(),
		ms: map[string]float64{}, n: map[string]float64{}}
	for r := 0; r < w.numRanks(); r++ {
		pr.distHier = append(pr.distHier, core.NewHierarchy())
	}
	return pr
}

// timed runs f under a probe span and adds its duration to ms[name].
func (pr *prober) timed(k int, name string, f func()) {
	t0 := time.Since(pr.base)
	f()
	t1 := time.Since(pr.base)
	pr.spans = append(pr.spans, span{Epoch: k, Name: "probe." + name, StartNs: int64(t0), EndNs: int64(t1)})
	pr.ms[name] += float64(t1-t0) / nsPerMs
}

func (pr *prober) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if mb := float64(ms.HeapInuse) / 1e6; mb > pr.heapMB {
		pr.heapMB = mb
	}
}

// before runs ahead of a probe epoch: it keeps the gathered forest and the
// owner map the epoch starts from.
func (pr *prober) before(c *par.Comm, e *pared.Engine, k int) {
	t0 := time.Now()
	f := e.GatherForest(0)
	if c.Rank() == 0 {
		pr.sampleHeap()
		pr.fBefore = f
		pr.ownerBefore = append(pr.ownerBefore[:0], e.Owner...)
	}
	c.Barrier()
	if c.Rank() == 0 && k > 0 {
		pr.ns += int64(time.Since(t0)) // before epoch 0 the wall clock has not started
	}
}

// after runs behind a probe epoch. Rebalancing moves trees but not leaves, so
// the forest gathered now is exactly the mesh the epoch's Rebalance saw.
func (pr *prober) after(c *par.Comm, e *pared.Engine, k int, ran bool) {
	t0 := time.Now()
	f := e.GatherForest(0)
	if c.Rank() == 0 {
		pr.sampleHeap()
		//paredlint:allow collective -- the collectives replay reaches run on the communicator of a par.Run of its own (replayCore), never on c
		pr.replay(k, f, e.Owner, ran)
		pr.fBefore = nil
		runtime.GC() // the replay's garbage must not set the next epoch's GC pace
	}
	c.Barrier()
	if c.Rank() == 0 && k < pr.w.epochs-1 {
		pr.ns += int64(time.Since(t0)) // behind the last epoch it has stopped
	}
}

func (pr *prober) replay(k int, fAfter *forest.Forest, ownerAfter []int32, ran bool) {
	p := pr.w.numRanks()
	pr.n["epochs"]++

	var leaf *forest.LeafMeshResult
	pr.timed(k, "forest.leafmesh", func() { leaf = fAfter.LeafMesh() })
	var g *graph.Graph
	pr.timed(k, "graph.coarse_dual", func() { g = graph.CoarseDual(pr.coarse.NumElems(), leaf.Mesh, leaf.LeafRoot) })
	pr.n["graph.n"], pr.n["graph.m"] = float64(g.N()), float64(g.M())

	if ran {
		pr.n["ran"]++
		pr.replayCore(k, g, p)
		pr.replayCoarsening(k, g)
		pr.replaySFC(k, g, p)
	}
	pr.replayMigration(k, fAfter, ownerAfter, p)
	pr.replayAdapt(k)
}

// replayCore repeats the epoch's P3 decision three ways: with a hierarchy
// cache that lives across probe epochs, without one, and collectively.
func (pr *prober) replayCore(k int, g *graph.Graph, p int) {
	old := pr.ownerBefore
	var decided []int32
	pr.timed(k, "core.repartition_cached", func() {
		decided = core.Repartition(g, old, p, core.Config{Hierarchy: pr.hier})
	})
	pr.timed(k, "core.repartition_scratch", func() { core.Repartition(g, old, p, core.Config{}) })
	pr.timed(k, "core.dist_repartition", func() {
		err := par.Run(p, func(c *par.Comm) {
			core.Repartition(g, old, p, core.Config{DistRefine: c, Hierarchy: pr.distHier[c.Rank()]})
		})
		if err != nil {
			panic(err)
		}
	})
	pr.n["core.cut_after"] += float64(partition.EdgeCut(g, decided))
	pr.n["core.migrated_weight"] += float64(partition.MigrationCost(g.VW, old, decided))
}

// replayCoarsening contracts G the way PNR does (heavy-edge matching within
// parts) down to coarsenTo vertices, timing matching and contraction apart.
func (pr *prober) replayCoarsening(k int, g *graph.Graph) {
	owner := pr.ownerBefore
	levels := 0
	for g.N() > coarsenTo {
		var match []int32
		pr.timed(k, "graph.hem", func() {
			match = graph.HeavyEdgeMatching(g, int64(1+levels), func(u, v int32) bool { return owner[u] == owner[v] })
		})
		var cg *graph.Graph
		var cmap []int32
		pr.timed(k, "graph.contract", func() { cg, cmap = graph.ContractInto(g, match, &pr.contract) })
		if cg.N() == g.N() {
			break // nothing left to match inside the parts
		}
		coarse := make([]int32, cg.N())
		for v, cv := range cmap {
			coarse[cv] = owner[v]
		}
		g, owner = cg, coarse
		levels++
	}
	pr.n["graph.levels"] += float64(levels)
}

func (pr *prober) replaySFC(k int, g *graph.Graph, p int) {
	var keys []uint64
	pr.timed(k, "sfc.keys", func() { keys = sfc.Keys(pr.coarse, sfc.Hilbert) })
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	pr.timed(k, "sfc.sort", func() { sfc.SortByKey(keys, order, &pr.sortScratch) })
	pr.timed(k, "sfc.assign", func() { sfc.Assign(order, g.VW, pr.ownerBefore, p, true, nil, &pr.assign) })
}

// replayMigration pushes the trees whose owner changed across the epoch
// through the wire codec: one buffer per destination rank, as Engine.migrate
// builds them.
func (pr *prober) replayMigration(k int, fAfter *forest.Forest, ownerAfter []int32, p int) {
	lanes := make([][]*forest.TreePayload, p)
	pr.timed(k, "forest.extract", func() {
		for r, o := range ownerAfter {
			if o != pr.ownerBefore[r] {
				lanes[o] = append(lanes[o], fAfter.ExtractTree(int32(r)))
			}
		}
	})
	bufs := make([][]byte, p)
	pr.timed(k, "forest.encode", func() {
		for dst, ps := range lanes {
			if len(ps) > 0 {
				bufs[dst] = forest.EncodePayloads(ps)
			}
		}
	})
	decoded := make([][]*forest.TreePayload, p)
	pr.timed(k, "forest.decode", func() {
		for dst, buf := range bufs {
			if buf == nil {
				continue
			}
			ps, err := forest.DecodePayloads(buf)
			if err != nil {
				panic(err)
			}
			decoded[dst] = ps
		}
	})
	pr.timed(k, "forest.insert", func() {
		for _, ps := range decoded {
			dst := forest.New(fAfter.Dim)
			for _, tp := range ps {
				dst.InsertTree(tp)
			}
		}
	})
	for dst, ps := range lanes {
		pr.n["forest.wire_bytes"] += float64(len(bufs[dst]))
		for _, tp := range ps {
			pr.n["forest.elems"] += float64(tp.NumLeaves())
		}
	}
}

// replayAdapt repeats the epoch's adaptation on the forest gathered before
// it, on one thread with no exchange rounds: the serial baseline of
// Engine.Adapt. A solve workload first needs the serial solve its estimator
// comes from, which is also the la/fem probe.
func (pr *prober) replayAdapt(k int) {
	w, f := pr.w, pr.fBefore
	var est refine.Estimator
	if w.solve {
		est = pr.replaySolve(k, f)
	} else {
		est = w.analyticEstimator(pr.geo, k)
	}
	r := refine.NewRefiner(f)
	tol := w.epochTol(k)
	pr.timed(k, "refine.serial_adapt", func() {
		for pass := 0; pass < w.passes; pass++ {
			res := refine.AdaptOnce(r, est, tol, tol*w.coarsen, w.maxLevel)
			pr.n["refine.bisections"] += float64(res.Refined)
		}
	})
	pr.n["refine.elems"] += float64(f.NumLeaves())
}

func (pr *prober) replaySolve(k int, f *forest.Forest) refine.Estimator {
	leaf := f.LeafMesh()
	g := pr.w.cornerField(pr.geo)
	var a *la.CSR
	pr.timed(k, "fem.assemble", func() { a = fem.AssembleLaplace(leaf.Mesh) })
	pr.n["la.nnz"] += float64(a.NNZ())
	pr.n["la.rows"] += float64(a.N)
	x, y := make([]float64, a.N), make([]float64, a.N)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	pr.timed(k, "la.spmv", func() {
		for i := 0; i < spmvCalls; i++ {
			a.MulVec(y, x)
		}
	})
	var sol *fem.Solution
	pr.timed(k, "fem.serial_solve", func() {
		var err error
		sol, err = fem.Solve(fem.Problem{Mesh: leaf.Mesh, G: g}, 1e-8, 50000)
		if err != nil {
			panic(err)
		}
	})
	pr.n["la.serial_cg_iters"] += float64(sol.CG.Iterations)
	return fem.ZZEstimator(leaf, sol.U)
}
