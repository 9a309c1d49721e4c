package core

import (
	"pared/internal/check"
	"pared/internal/graph"
)

// This file implements §9's move-selection structure literally: "we maintain
// a square table with an entry for each pair of subsets consisting of
// priority queues based on gains ... we select the vertex movement with
// largest gain from this table". A move of a vertex between πi and πj
// changes weight(πi) − weight(πj), which invalidates the balance component
// of every queued move involving i or j; the paper rebuilds those queues.
// Here the rebuild is lazy: each pair queue carries an epoch, bumped when
// either endpoint's weight changes, and stale entries are recomputed when
// they surface at the top. The selected move is always the true argmax, so
// the table is interchangeable with the boundary-scan selection in kl.go
// (runKL); Config.UseGainTable switches between them, and tests cross-check
// the two.

// tableEntry is a queued candidate move.
type tableEntry struct {
	gain  float64
	v     int32
	stamp int32 // per-vertex neighbor-update stamp
	epoch int32 // per-pair weight epoch
}

type pairQueue []tableEntry

func (q pairQueue) Len() int { return len(q) }
func (q pairQueue) Less(a, b int) bool {
	if q[a].gain > q[b].gain {
		return true
	}
	if q[a].gain < q[b].gain {
		return false
	}
	return q[a].v < q[b].v
}
func (q pairQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }

// push and pop are a monomorphic port of container/heap's sift loops: going
// through heap.Push(q, e) boxes every tableEntry into an interface, and these
// queues sit on the KL inner loop. The sift order matches the stdlib exactly,
// so pop order — and therefore move selection — is unchanged (the
// table-vs-boundary-scan cross-check tests pin this).

func (q *pairQueue) push(e tableEntry) {
	*q = append(*q, e)
	q.up(len(*q) - 1)
}

func (q *pairQueue) pop() tableEntry {
	n := len(*q) - 1
	q.Swap(0, n)
	q.down(0, n)
	e := (*q)[n]
	*q = (*q)[:n]
	return e
}

func (q pairQueue) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.Less(j, i) {
			break
		}
		q.Swap(i, j)
		j = i
	}
}

func (q pairQueue) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q.Less(j2, j1) {
			j = j2
		}
		if !q.Less(j, i) {
			break
		}
		q.Swap(i, j)
		i = j
	}
}

// gainTable is the p×p priority-queue table.
type gainTable struct {
	g      *graph.Graph
	p      int
	cfg    Config
	orig   []int32
	parts  []int32
	partW  []int64
	stamps []int32
	epochs []int32 // per pair i*p+j
	queues []pairQueue
	locked []bool

	extW    []int64 // scratch
	touched []int32
}

func newGainTable(g *graph.Graph, parts, orig []int32, p int, cfg Config) *gainTable {
	t := &gainTable{
		g: g, p: p, cfg: cfg, orig: orig, parts: parts,
		partW:  make([]int64, p),
		stamps: make([]int32, g.N()),
		epochs: make([]int32, p*p),
		queues: make([]pairQueue, p*p),
		locked: make([]bool, g.N()),
		extW:   make([]int64, p),
	}
	for v := 0; v < g.N(); v++ {
		t.partW[parts[v]] += g.VW[v]
	}
	for v := int32(0); v < int32(g.N()); v++ {
		t.pushMoves(v)
	}
	return t
}

// gain computes the full 3-term gain for moving v from its part to j.
func (t *gainTable) gain(v, j int32, extI, extJ int64) float64 {
	i := t.parts[v]
	return moveGain(t.cfg, extJ-extI, t.g.VW[v], i, j, t.orig[v], t.partW[i], t.partW[j], false)
}

// pushMoves (re)inserts all candidate moves of boundary vertex v into the
// queues of pairs (part(v), j) for each adjacent part j.
func (t *gainTable) pushMoves(v int32) {
	t.stamps[v]++
	i := t.parts[v]
	t.touched = t.touched[:0]
	t.g.Neighbors(v, func(u int32, w int64) {
		pu := t.parts[u]
		if t.extW[pu] == 0 {
			t.touched = append(t.touched, pu)
		}
		t.extW[pu] += w
	})
	for _, j := range t.touched {
		if j == i {
			continue
		}
		q := &t.queues[int(i)*t.p+int(j)]
		q.push(tableEntry{
			gain:  t.gain(v, j, t.extW[i], t.extW[j]),
			v:     v,
			stamp: t.stamps[v],
			epoch: t.epochs[int(i)*t.p+int(j)],
		})
	}
	for _, j := range t.touched {
		t.extW[j] = 0
	}
}

// refreshTop pops invalid entries off queue (i,j) until its top is current,
// recomputing stale-epoch gains in place.
func (t *gainTable) refreshTop(i, j int) {
	q := &t.queues[i*t.p+j]
	for q.Len() > 0 {
		top := (*q)[0]
		if top.stamp != t.stamps[top.v] || t.locked[top.v] || int(t.parts[top.v]) != i {
			q.pop()
			continue
		}
		if top.epoch != t.epochs[i*t.p+j] {
			// Weights of i or j changed: recompute the balance-dependent
			// gain and reposition the entry.
			q.pop()
			// Part ids fit int32 throughout (p is a rank count).
			extI, extJ := t.extTo(top.v, int32(i)), t.extTo(top.v, int32(j))
			q.push(tableEntry{
				gain:  t.gain(top.v, int32(j), extI, extJ),
				v:     top.v,
				stamp: top.stamp,
				epoch: t.epochs[i*t.p+j],
			})
			continue
		}
		return
	}
}

// extTo returns the total edge weight from v to part j.
func (t *gainTable) extTo(v, j int32) int64 {
	var s int64
	t.g.Neighbors(v, func(u int32, w int64) {
		if t.parts[u] == j {
			s += w
		}
	})
	return s
}

// selectBest returns the overall best move (v, to, gain), or v = -1.
func (t *gainTable) selectBest() (v, to int32, gain float64) {
	v = -1
	for i := 0; i < t.p; i++ {
		for j := 0; j < t.p; j++ {
			if i == j {
				continue
			}
			t.refreshTop(i, j)
			q := t.queues[i*t.p+j]
			if len(q) < 1 {
				continue
			}
			top := q[0]
			// ">= && v<" realizes the equal-gain tie-break without a float ==:
			// the > clause has already failed when it is evaluated.
			if v < 0 || top.gain > gain || (top.gain >= gain && top.v < v) {
				v, to, gain = top.v, int32(j), top.gain
			}
		}
	}
	return v, to, gain
}

// apply executes the move, bumping epochs of affected pairs and refreshing
// the neighbor candidates.
func (t *gainTable) apply(v, to int32) {
	from := t.parts[v]
	t.parts[v] = to
	t.partW[from] -= t.g.VW[v]
	t.partW[to] += t.g.VW[v]
	t.locked[v] = true
	t.stamps[v]++
	for k := 0; k < t.p; k++ {
		t.epochs[int(from)*t.p+k]++
		t.epochs[k*t.p+int(from)]++
		t.epochs[int(to)*t.p+k]++
		t.epochs[k*t.p+int(to)]++
	}
	t.g.Neighbors(v, func(u int32, _ int64) {
		if !t.locked[u] {
			t.pushMoves(u)
		}
	})
}

// refineKLTable runs the same KL pass semantics as runKL but selects moves
// through the §9 gain table. Used when Config.UseGainTable is set.
func refineKLTable(g *graph.Graph, parts, orig []int32, p int, cfg Config) {
	n := g.N()
	if n == 0 || p <= 1 {
		return
	}
	for pass := 0; pass < klPasses; pass++ {
		t := newGainTable(g, parts, orig, p, cfg)
		type move struct {
			v    int32
			from int32
		}
		var moves []move
		cumGain, bestGain := 0.0, 0.0
		bestIdx := -1
		negStreak := 0
		for {
			v, to, gain := t.selectBest()
			if v < 0 {
				break
			}
			if check.Enabled {
				t.assertSelectionFresh(v, to, gain)
			}
			from := parts[v]
			t.apply(v, to)
			if check.Enabled {
				check.PartitionWeights(t.g, t.parts, t.p, t.partW, "core.refineKLTable")
			}
			cumGain += gain
			moves = append(moves, move{v, from})
			if cumGain > bestGain+1e-9 {
				bestGain = cumGain
				bestIdx = len(moves) - 1
				negStreak = 0
			} else {
				negStreak++
				if negStreak > maxNegMoves {
					break
				}
			}
		}
		for i := len(moves) - 1; i > bestIdx; i-- {
			parts[moves[i].v] = moves[i].from
		}
		if bestIdx < 0 {
			break
		}
	}
}
