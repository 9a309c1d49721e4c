// Package collective is a paredlint fixture for the collective check:
// par.Comm collectives reachable only under rank-dependent control flow.
package collective

import "pared/internal/par"

// gatedBranch: the root deadlocks everyone else.
func gatedBranch(c *par.Comm) {
	if c.Rank() == 0 {
		c.Barrier() // want "reachable only under rank-dependent control .branch"
	}
}

// gatedEarlyReturn: ranks > 0 leave before the collective.
func gatedEarlyReturn(c *par.Comm) {
	if c.Rank() > 0 {
		return
	}
	c.Barrier() // want "reachable only under rank-dependent control .early return"
}

// gatedLoop: rank r calls Gather r times — the counts diverge.
func gatedLoop(c *par.Comm) {
	me := c.Rank()
	for i := 0; i < me; i++ {
		c.Gather(0, i) // want "reachable only under rank-dependent control .loop bound"
	}
}

// gatedIndirect is the interprocedural positive: the Barrier is two calls
// away and only the call graph makes the bug visible.
func gatedIndirect(c *par.Comm) {
	if c.Rank() == 0 {
		doSync(c) // want "reaches collective .*Barrier under rank-dependent control"
	}
}

func doSync(c *par.Comm) {
	deepSync(c)
}

func deepSync(c *par.Comm) {
	c.Barrier()
}

// okRootWork: rank-gated LOCAL work followed by an unconditional collective
// is the canonical correct pattern (engine P2/P3) — no finding.
func okRootWork(c *par.Comm, reps []any) any {
	var plan any
	if c.Rank() == 0 {
		plan = len(reps)
	}
	return c.Bcast(0, plan)
}

// okReplicated: all-reduce results are identical on every rank, so branching
// on them keeps the collective sequence in lockstep — no finding.
func okReplicated(c *par.Comm, doit int64) {
	if c.AllReduceSumInt64(doit) > 0 {
		c.Barrier()
	}
}

// okSizeLoop: Size() is the same on every rank — no finding.
func okSizeLoop(c *par.Comm) {
	for i := 0; i < c.Size(); i++ {
		c.Bcast(i, i)
	}
}

// gatedSplit: Split is itself a collective on the PARENT comm — every parent
// rank must call it (with whatever color), or the subgroup numbering
// exchange deadlocks the ranks that do.
func gatedSplit(c *par.Comm) {
	if c.Rank() == 0 {
		c.Split(0, 0) // want "reachable only under rank-dependent control .branch"
	}
}

// badParentInMemberBranch: the membership guard admits collectives on the
// tested comm only. A collective on the PARENT comm inside the member arm
// deadlocks the excluded ranks, which never enter the branch.
func badParentInMemberBranch(c *par.Comm) {
	lcolor := int64(-1)
	if c.Rank() == 0 {
		lcolor = 0
	}
	leaders := c.Split(lcolor, 0)
	if leaders != nil {
		c.Barrier() // want "reachable only under rank-dependent control .subgroup membership branch"
	}
}

// badNonMemberSide: the nil arm runs on the ranks OUTSIDE the subgroup — a
// parent collective there is gated on not being a member.
func badNonMemberSide(c *par.Comm) {
	lcolor := int64(-1)
	if c.Rank() == 0 {
		lcolor = 0
	}
	sub := c.Split(lcolor, 0)
	if sub == nil {
		c.Barrier() // want "reachable only under rank-dependent control .subgroup membership branch"
	}
}

// badRankGateInsideMember: a further rank test inside the member arm is
// rank-dependent WITHIN the subgroup; the membership exemption does not
// survive it.
func badRankGateInsideMember(c *par.Comm) {
	sub := c.Split(int64(c.Rank()%2), 0)
	if sub != nil {
		if sub.Rank() == 0 {
			sub.Barrier() // want "reachable only under rank-dependent control .branch"
		}
	}
}

// okLeaderBcast is the leader-comm idiom of the hierarchical engine: node
// groups split by rank-derived color, node leaders split into a leader comm
// (everyone else holds nil), and the leader-only collective sits inside the
// membership branch. Every rank holding the comm reaches it — no finding.
func okLeaderBcast(c *par.Comm, x []int64) {
	node := c.Split(int64(c.Rank()/2), 0)
	lcolor := int64(-1)
	if node.Rank() == 0 {
		lcolor = 0
	}
	leaders := c.Split(lcolor, int64(c.Rank()/2))
	if leaders != nil {
		leaders.AllGatherInt64(x)
	}
	node.BcastInt64(0, x)
}

// okMemberEarlyReturn: `if sub == nil { return }` leaves only subgroup
// members in the rest of the block; collectives on sub after it run on every
// member — no finding.
func okMemberEarlyReturn(c *par.Comm) {
	lcolor := int64(-1)
	if c.Rank()%2 == 0 {
		lcolor = 0
	}
	sub := c.Split(lcolor, 0)
	if sub == nil {
		return
	}
	sub.Barrier()
}
