package main

import (
	"errors"
	"runtime"
	"time"

	"pared/internal/fem"
	"pared/internal/par"
	"pared/internal/pared"
	"pared/internal/refine"
)

// repDeadline bounds one rep. A rank that panics leaves its peers blocked in
// a channel receive, so par.Run never returns; the deadline turns that hang
// into a failed rep and a non-zero exit.
var repDeadline = 60 * time.Second // a variable so that the tests can shorten it

var errDeadline = errors.New("rep exceeded its deadline (a rank is blocked; see ROADMAP item 4)")

// The four engine calls of an epoch, in cycle order.
const (
	phSolve = iota
	phEstimate
	phAdapt
	phRebalance
	nPhases
)

var phaseNames = [nPhases]string{"solve", "estimate", "adapt", "rebalance"}

// span is one traced interval. The tree is rep → epoch → engine call; probe
// spans are roots of their own, outside every epoch span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = none
	Rep     int    `json:"rep"`
	Epoch   int    `json:"epoch"` // −1 on a rep span
	Rank    int    `json:"rank"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// rankLog is what one rank writes during a rep: preallocated, private to the
// rank until par.Run returns. Times are nanoseconds since the rep's base.
type rankLog struct {
	setupEnd             int64
	epochStart, epochEnd []int64
	phase                [nPhases][]int64 // per epoch, summed over the calls of that phase
	leavesPre            []int64          // local leaves after adapt, before rebalance
	refined              int64
	engine               pared.PhaseDurations
	cheapSkips           int64
	cgIters              int64
	unconverged          int
	linf                 float64
	calls                []span // traced reps only: one span per engine call
}

func newRankLog(w *workload, traced bool) rankLog {
	lg := rankLog{
		epochStart: make([]int64, w.epochs),
		epochEnd:   make([]int64, w.epochs),
		leavesPre:  make([]int64, w.epochs),
	}
	for i := range lg.phase {
		lg.phase[i] = make([]int64, w.epochs)
	}
	if traced {
		lg.calls = make([]span, 0, w.epochs*(3+w.passes))
	}
	return lg
}

// epochStat is the part of an epoch's outcome that is identical on every
// rank; rank 0 records it.
type epochStat struct {
	leaves int64 // global leaves after adapt
	rounds int   // adapt exchange rounds, summed over passes
	reb    pared.RebalanceStats
}

// repResult is one rep, merged over ranks.
type repResult struct {
	err     error
	logs    []rankLog
	epochs  []epochStat
	allocB  uint64
	mallocs uint64
	spans   []span // traced reps only

	attempted, failed int
	failures          []string
	ownerHash         uint64
	leafHash          uint64
}

// runRep runs the workload's whole epoch sequence once on fresh state and
// verifies what it produced. pr is nil on untraced reps.
func runRep(w *workload, geo geometry, rep int, pr *prober) *repResult {
	p := w.numRanks()
	traced := pr != nil
	res := &repResult{logs: make([]rankLog, p), epochs: make([]epochStat, w.epochs)}
	for r := range res.logs {
		res.logs[r] = newRankLog(w, traced)
	}
	var final *verifyInput

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base := time.Now()
	m0 := w.mesh()
	if traced {
		pr.base, pr.coarse = base, m0
	}
	g := w.cornerField(geo)

	body := func(c *par.Comm) {
		me := c.Rank()
		lg := &res.logs[me]
		e := pared.BootstrapWith(c, m0, w.cfg)
		c.Barrier()
		lg.setupEnd = int64(time.Since(base))

		var lastSol *pared.DistSolution
		for k := 0; k < w.epochs; k++ {
			probing := traced && w.probeEpoch(k)
			if probing {
				pr.before(c, e, k)
			}
			t := int64(time.Since(base))
			lg.epochStart[k] = t
			var est refine.Estimator
			if w.solve {
				sol, err := e.SolveLaplace(nil, g, 1e-8, 50000)
				if err != nil {
					lg.unconverged++
				}
				lg.cgIters += int64(sol.Iterations)
				lastSol = sol
				t = lg.mark(phSolve, k, t, base)
				est = e.ZZEstimator(sol)
				t = lg.mark(phEstimate, k, t, base)
			} else {
				est = w.analyticEstimator(geo, k)
			}
			tol := w.epochTol(k)
			var ast pared.AdaptStats
			for pass := 0; pass < w.passes; pass++ {
				ast = e.Adapt(est, tol, tol*w.coarsen, w.maxLevel)
				t = lg.mark(phAdapt, k, t, base)
				lg.refined += int64(ast.LocalRefined)
				if me == 0 {
					res.epochs[k].rounds += ast.Rounds
				}
			}
			lg.leavesPre[k] = int64(e.F.NumLeaves())
			st := e.Rebalance(false)
			t = lg.mark(phRebalance, k, t, base)
			lg.epochEnd[k] = t
			if me == 0 {
				res.epochs[k].leaves = ast.GlobalLeaves
				res.epochs[k].reb = st
			}
			if probing {
				pr.after(c, e, k, st.Ran)
			}
		}
		lg.engine, lg.cheapSkips = e.Phases, e.CheapSkips
		if lastSol != nil {
			lg.linf = fem.LInfError(lastSol.Mesh.Mesh, lastSol.U, g)
		}

		// Everything below is verification, outside every timed region.
		c.Barrier()
		if me == 0 {
			runtime.ReadMemStats(&ms1)
		}
		cerr := e.CheckConsistency()
		f := e.GatherForest(0)
		if me == 0 {
			final = &verifyInput{
				ranks: p, consistency: cerr, owner: e.Owner, forest: f,
				numRoots: m0.NumElems(), globalLeaves: res.epochs[w.epochs-1].leaves,
			}
		}
	}

	res.err = runWithDeadline(func() error { return par.Run(p, body) })
	if res.err != nil {
		// Nothing the rep produced can be trusted: every check fails.
		res.attempted = numChecks(w)
		res.failed = res.attempted
		res.failures = []string{res.err.Error()}
		return res
	}
	res.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	if traced {
		res.buildSpans(w, rep, pr.spans)
	}
	if w.solve {
		final.solve = true
		final.maxLinf = w.maxLinf
		for r := range res.logs {
			final.unconverged += res.logs[r].unconverged
			if res.logs[r].linf > final.linf {
				final.linf = res.logs[r].linf
			}
		}
	}
	res.verify(final)
	return res
}

// mark closes the interval that began at t: it charges it to phase ph of
// epoch k and returns the new "now".
func (lg *rankLog) mark(ph, k int, t int64, base time.Time) int64 {
	now := int64(time.Since(base))
	lg.phase[ph][k] += now - t
	if lg.calls != nil {
		lg.calls = append(lg.calls, span{Epoch: k, Name: phaseNames[ph], StartNs: t, EndNs: now})
	}
	return now
}

// buildSpans turns the ranks' call lists and the prober's list into the
// rep's span tree: rep → epoch → engine call per rank, and the probe spans as
// roots on rank 0.
func (res *repResult) buildSpans(w *workload, rep int, probes []span) {
	id := 0
	add := func(s span) int {
		id++
		s.ID, s.Rep = id, rep
		res.spans = append(res.spans, s)
		return id
	}
	for r := range res.logs {
		lg := &res.logs[r]
		repID := add(span{Epoch: -1, Rank: r, Name: "rep", EndNs: lg.epochEnd[w.epochs-1]})
		epochID := make([]int, w.epochs)
		for k := range epochID {
			epochID[k] = add(span{Parent: repID, Epoch: k, Rank: r, Name: "epoch",
				StartNs: lg.epochStart[k], EndNs: lg.epochEnd[k]})
		}
		for _, s := range lg.calls {
			s.Parent, s.Rank = epochID[s.Epoch], r
			add(s)
		}
	}
	for _, s := range probes {
		add(s)
	}
}

// runWithDeadline runs f on its own goroutine so that a hung par.Run cannot
// hang the report. The harness is not engine code: this watchdog is its one
// use of raw concurrency.
func runWithDeadline(f func() error) error {
	done := make(chan error, 1) //paredlint:allow rawconc -- watchdog, see above
	go func() {                 //paredlint:allow rawconc -- watchdog, see above
		done <- f() //paredlint:allow rawconc -- watchdog, see above
	}()
	timer := time.NewTimer(repDeadline)
	defer timer.Stop()
	select { //paredlint:allow rawconc -- watchdog, see above
	case err := <-done:
		return err
	case <-timer.C:
		return errDeadline
	}
}
