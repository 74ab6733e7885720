package bnp

import (
	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sched"
)

// LAST is the Localized Allocation of Static Tasks algorithm of Baxter
// and Patel (1989). Unlike the other BNP algorithms it is not level
// driven: its goal is to minimize communication by preferring nodes that
// are strongly connected to the already-scheduled part of the graph.
//
// Each ready node carries the D_NODE attribute
//
//	D_NODE(n) = Σ edge costs to scheduled neighbors / Σ all edge costs
//
// over both incoming and outgoing edges. The ready node with the highest
// D_NODE is scheduled next, on the processor giving its earliest start
// time (non-insertion). Ties break toward the higher static level, then
// the smaller ID. The paper finds LAST the worst-performing BNP
// algorithm (section 6.2) — localizing communication alone does not
// shorten the critical path.
func LAST(g *dag.Graph, numProcs int) (*sched.Schedule, error) {
	return ScheduleHet("LAST", g, numProcs, nil)
}

// runLAST is the LAST loop on a prepared schedule.
func runLAST(g *dag.Graph, s *sched.Schedule) {
	sc := acquireScratch(g)
	defer sc.release()
	sl := sc.lv.Static
	ready := algo.AcquireReadySet(g)
	defer ready.Release()
	for !ready.Empty() {
		best := dag.None
		var bestD float64
		for _, n := range ready.Ready() {
			d := dNode(g, s, n)
			if best == dag.None || d > bestD ||
				(d == bestD && (sl[n] > sl[best] || (sl[n] == sl[best] && n < best))) {
				best, bestD = n, d
			}
		}
		ready.Pop(best)
		p, est, ok := s.BestEST(best, false)
		if !ok {
			panic("bnp: LAST popped node with unscheduled parent")
		}
		// D_NODE is a fraction in [0,1]; stage it in micro-units.
		obs.TracePriority(int32(best), int64(bestD*1e6))
		s.MustPlace(best, p, est)
		ready.MarkScheduled(g, best)
	}
}

// dNode computes the D_NODE attribute: the fraction of n's total
// adjacent edge weight that connects to already-scheduled nodes. Nodes
// whose adjacent edges all have zero cost get 1 if any neighbor is
// scheduled and 0 otherwise, so edge count substitutes for edge weight.
func dNode(g *dag.Graph, s *sched.Schedule, n dag.NodeID) float64 {
	var total, scheduled int64
	var totalCnt, schedCnt int
	for _, a := range g.Preds(n) {
		total += a.Weight
		totalCnt++
		if s.IsScheduled(a.To) {
			scheduled += a.Weight
			schedCnt++
		}
	}
	for _, a := range g.Succs(n) {
		total += a.Weight
		totalCnt++
		if s.IsScheduled(a.To) {
			scheduled += a.Weight
			schedCnt++
		}
	}
	if totalCnt == 0 {
		return 0 // isolated node
	}
	if total == 0 {
		return float64(schedCnt) / float64(totalCnt)
	}
	return float64(scheduled) / float64(total)
}
