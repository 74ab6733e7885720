// Package optimal implements an exact branch-and-bound scheduler for the
// clique machine model. The paper obtained optimal solutions for its
// RGBOS benchmark suite (random graphs of 10–32 nodes) with a parallel
// A* search [Kwok & Ahmad, "Optimal and Near-Optimal Allocation of
// Precedence-Constrained Tasks to Parallel Processors"]; this package
// plays that role with a sequential depth-first branch-and-bound using
// the same admissible lower bounds.
//
// # Search space
//
// States are partial schedules grown append-only: at each step one ready
// task (all parents scheduled) is appended to one processor at its
// earliest start time there. This space always contains an optimal
// schedule: replaying any optimal schedule in ascending start-time order
// appends every task no later than its optimal start. Branching
// considers every ready task on every non-empty processor plus exactly
// one empty processor (empty processors are interchangeable — a cheap
// symmetry reduction that removes a factorial factor).
//
// # Bounds
//
// A node is pruned when max(current length, critical-path bound, load
// bound) reaches the incumbent:
//
//   - critical-path bound: earliest conceivable start of each unscheduled
//     task (communication optimistically zero) plus its static level;
//   - load bound: processors cannot finish before busy time plus
//     remaining work spreads across them.
//
// The incumbent is seeded with the best schedule of the eleven
// clique-model heuristics (the six BNP algorithms, and the five UNC
// algorithms whose clusters fit on the processors), so the search only
// has to prove optimality or find rare improvements. The heuristics are
// tried in a fixed order and a later one replaces the incumbent only
// when strictly shorter, and the search itself is a deterministic
// depth-first walk, so every call on the same input returns the same
// schedule.
package optimal

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/algo/bnp"
	"repro/internal/algo/unc"
	"repro/internal/dag"
	"repro/internal/sched"
)

// Options configures the search.
type Options struct {
	// MaxExpansions caps the number of search-tree nodes expanded. 0
	// means DefaultMaxExpansions. When the cap is hit the best schedule
	// found so far is returned with Closed=false.
	MaxExpansions int64
}

// DefaultMaxExpansions bounds the search effort when Options.MaxExpansions
// is zero. RGBOS-sized instances (10–32 nodes) close well within it.
const DefaultMaxExpansions = 3_000_000

// Result is the outcome of a search.
type Result struct {
	Schedule   *sched.Schedule // best schedule found
	Length     int64           // its makespan
	Closed     bool            // true when Length is proven optimal
	Expansions int64           // search-tree nodes expanded
}

type searcher struct {
	g          *dag.Graph
	numProcs   int
	s          *sched.Schedule
	sl         []int64 // static levels
	best       *sched.Schedule
	bestLen    int64
	expansions int64
	maxExp     int64
	truncated  bool
	lbStart    []int64 // scratch for the critical-path bound
	topo       []dag.NodeID
	remaining  []int // unscheduled parent count
	ready      []dag.NodeID
}

// Schedule finds a minimum-makespan schedule of g on numProcs identical
// processors under the clique communication model.
func Schedule(g *dag.Graph, numProcs int, opts Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("optimal: nil graph")
	}
	if numProcs < 1 {
		return nil, fmt.Errorf("optimal: need at least one processor, got %d", numProcs)
	}
	if g.NumNodes() == 0 {
		return &Result{Schedule: sched.New(g, numProcs), Closed: true}, nil
	}

	se := &searcher{
		g:        g,
		numProcs: numProcs,
		s:        sched.New(g, numProcs),
		sl:       dag.StaticLevels(g),
		maxExp:   opts.MaxExpansions,
		lbStart:  make([]int64, g.NumNodes()),
		topo:     g.TopoOrder(),
	}
	if se.maxExp <= 0 {
		se.maxExp = DefaultMaxExpansions
	}

	// Incumbent: the best schedule over every clique-model heuristic. A
	// tight incumbent is what lets the communication-heavy (CCR 10)
	// instances close. The heuristics run in sorted-name order, BNP
	// before UNC, so ties between them always resolve to the same
	// schedule.
	bnpAlgs := bnp.Algorithms()
	for _, name := range slices.Sorted(maps.Keys(bnpAlgs)) {
		if m, err := bnpAlgs[name](g, numProcs); err == nil {
			if se.best == nil || m.Length() < se.bestLen {
				se.best, se.bestLen = m, m.Length()
			}
		}
	}
	uncAlgs := unc.Algorithms()
	for _, name := range slices.Sorted(maps.Keys(uncAlgs)) {
		if d, err := uncAlgs[name](g); err == nil && d.ProcessorsUsed() <= numProcs {
			if dl := d.Length(); se.best == nil || dl < se.bestLen {
				se.best, se.bestLen = compact(d, numProcs), dl
			}
		}
	}
	if se.best == nil {
		m, err := bnp.HLFET(g, numProcs)
		if err != nil {
			return nil, err
		}
		se.best, se.bestLen = m, m.Length()
	}

	se.remaining = make([]int, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		se.remaining[v] = g.InDegree(dag.NodeID(v))
		if se.remaining[v] == 0 {
			se.ready = append(se.ready, dag.NodeID(v))
		}
	}
	se.dfs()
	return &Result{
		Schedule:   se.best,
		Length:     se.bestLen,
		Closed:     !se.truncated,
		Expansions: se.expansions,
	}, nil
}

// compact re-homes a schedule that may use more processor slots than
// numProcs but no more distinct processors; used to adopt UNC incumbents.
// Processors are renumbered 0, 1, … in the order in which node IDs
// first reach them.
func compact(s *sched.Schedule, numProcs int) *sched.Schedule {
	remap := map[int]int{}
	return replant(s, numProcs, func(p int) int {
		q, ok := remap[p]
		if !ok {
			q = len(remap)
			remap[p] = q
		}
		return q
	})
}

// snapshot deep-copies a complete schedule into a fresh Schedule.
func snapshot(s *sched.Schedule, numProcs int) *sched.Schedule {
	return replant(s, numProcs, func(p int) int { return p })
}

// replant copies every placement of the complete schedule s onto a new
// numProcs-processor schedule, moving processor p to proc(p). Placements
// are replayed in start-time order, so each processor keeps its task
// order. proc is called once per node, in node-ID order.
func replant(s *sched.Schedule, numProcs int, proc func(p int) int) *sched.Schedule {
	g := s.Graph()
	out := sched.New(g, numProcs)
	type placement struct {
		n     dag.NodeID
		p     int
		start int64
	}
	ps := make([]placement, g.NumNodes())
	for v := range ps {
		n := dag.NodeID(v)
		ps[v] = placement{n, proc(s.ProcOf(n)), s.StartOf(n)}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].start < ps[j].start })
	for _, pl := range ps {
		out.MustPlace(pl.n, pl.p, pl.start)
	}
	return out
}

func (se *searcher) dfs() {
	if se.truncated {
		return
	}
	if se.s.Complete() {
		if l := se.s.Length(); l < se.bestLen {
			se.best = snapshot(se.s, se.numProcs)
			se.bestLen = l
		}
		return
	}
	if se.expansions >= se.maxExp {
		se.truncated = true
		return
	}
	se.expansions++
	if se.lowerBound() >= se.bestLen {
		return
	}

	// Branch: every ready task on every non-empty processor plus the
	// first empty one, ordered by EST so promising children go first.
	for _, b := range se.branches() {
		se.apply(b.n, b.p, b.est)
		se.dfs()
		se.undo(b.n)
		if se.truncated {
			return
		}
	}
}

type branchCandidate struct {
	n   dag.NodeID
	p   int
	est int64
}

// branches lists every ready task on every non-empty processor plus the
// first empty one, ordered by EST, then static level descending, then
// node and processor ID.
func (se *searcher) branches() []branchCandidate {
	var out []branchCandidate
	for _, n := range se.ready {
		seenEmpty := false
		for p := 0; p < se.numProcs; p++ {
			if len(se.s.Slots(p)) == 0 {
				if seenEmpty {
					continue
				}
				seenEmpty = true
			}
			est, ok := se.s.ESTOn(n, p, false)
			if !ok {
				panic("optimal: ready node has unscheduled parent")
			}
			out = append(out, branchCandidate{n, p, est})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		bi, bj := out[i], out[j]
		if bi.est != bj.est {
			return bi.est < bj.est
		}
		if se.sl[bi.n] != se.sl[bj.n] {
			return se.sl[bi.n] > se.sl[bj.n]
		}
		if bi.n != bj.n {
			return bi.n < bj.n
		}
		return bi.p < bj.p
	})
	return out
}

func (se *searcher) apply(n dag.NodeID, p int, est int64) {
	se.s.MustPlace(n, p, est)
	for i, m := range se.ready {
		if m == n {
			se.ready = append(se.ready[:i], se.ready[i+1:]...)
			break
		}
	}
	for _, a := range se.g.Succs(n) {
		se.remaining[a.To]--
		if se.remaining[a.To] == 0 {
			se.ready = append(se.ready, a.To)
		}
	}
}

func (se *searcher) undo(n dag.NodeID) {
	for _, a := range se.g.Succs(n) {
		if se.remaining[a.To] == 0 {
			for i := len(se.ready) - 1; i >= 0; i-- {
				if se.ready[i] == a.To {
					se.ready = append(se.ready[:i], se.ready[i+1:]...)
					break
				}
			}
		}
		se.remaining[a.To]++
	}
	se.s.Unplace(n)
	se.ready = append(se.ready, n)
}

// lowerBound returns an admissible bound on the best completion time
// reachable from the current partial schedule.
func (se *searcher) lowerBound() int64 {
	lb := se.s.Length()

	// Critical-path bound. The recursion is optimistic about
	// communication (a child might co-locate with any parent), except
	// for the join refinement: a node can share a processor with at most
	// one group of scheduled parents, so at least the second-largest
	// arrival (counting communication from other processors) constrains
	// its start.
	for _, v := range se.topo {
		if se.s.IsScheduled(v) {
			se.lbStart[v] = se.s.StartOf(v)
			continue
		}
		var t int64
		for _, pr := range se.g.Preds(v) {
			var f int64
			if se.s.IsScheduled(pr.To) {
				f = se.s.FinishOf(pr.To)
			} else {
				f = se.lbStart[pr.To] + se.g.Weight(pr.To)
			}
			if f > t {
				t = f
			}
		}
		if jb := se.joinBound(v); jb > t {
			t = jb
		}
		se.lbStart[v] = t
		if c := t + se.sl[v]; c > lb {
			lb = c
		}
	}

	// Load bound: busy-or-committed processor time plus remaining work,
	// spread over all processors.
	var committed int64
	for p := 0; p < se.numProcs; p++ {
		if slots := se.s.Slots(p); len(slots) > 0 {
			committed += slots[len(slots)-1].Finish
		}
	}
	var remainingWork int64
	for v := 0; v < se.g.NumNodes(); v++ {
		if !se.s.IsScheduled(dag.NodeID(v)) {
			remainingWork += se.g.Weight(dag.NodeID(v))
		}
	}
	if load := ceilDiv(committed+remainingWork, int64(se.numProcs)); load > lb {
		lb = load
	}
	return lb
}

// joinBound lower-bounds the start of unscheduled node v from its
// scheduled parents: v lands on some processor q, so it starts no
// earlier than min over q of max(local finishes on q, remote arrivals
// finish+c from elsewhere). The minimum is attained either on the
// processor of the latest-arriving parent or on a fresh processor, so
// two arrival maxima suffice.
func (se *searcher) joinBound(v dag.NodeID) int64 {
	var a1 int64 = -1 // largest arrival (finish + c) among scheduled parents
	p1 := -1          // its processor
	for _, pr := range se.g.Preds(v) {
		if !se.s.IsScheduled(pr.To) {
			continue
		}
		if arr := se.s.FinishOf(pr.To) + pr.Weight; arr > a1 {
			a1 = arr
			p1 = se.s.ProcOf(pr.To)
		}
	}
	if p1 < 0 {
		return 0
	}
	var a2, f1 int64 // max arrival off p1; max finish on p1
	for _, pr := range se.g.Preds(v) {
		if !se.s.IsScheduled(pr.To) {
			continue
		}
		if se.s.ProcOf(pr.To) == p1 {
			if f := se.s.FinishOf(pr.To); f > f1 {
				f1 = f
			}
		} else if arr := se.s.FinishOf(pr.To) + pr.Weight; arr > a2 {
			a2 = arr
		}
	}
	onP1 := f1
	if a2 > onP1 {
		onP1 = a2
	}
	if a1 < onP1 {
		return a1
	}
	return onP1
}

func ceilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}
