package unc

import (
	"repro/internal/dag"
	"repro/internal/sched"
)

// DCP is the Dynamic Critical Path algorithm of Kwok and Ahmad (1996),
// the strongest UNC algorithm in the paper's comparison (it produces the
// best solutions across every benchmark suite, sections 6.1–6.3).
//
// Its three ingredients:
//
//  1. Dynamic critical path: after every placement the absolute earliest
//     start times (AEST) and absolute latest start times (ALST) are
//     recomputed on the partially scheduled graph; the next node is the
//     ready node with the smallest mobility ALST − AEST (zero for nodes
//     on the current DCP), ties toward smaller ALST.
//  2. Lookahead: a candidate processor is scored by the node's start
//     time plus the estimated start time of its critical child (the
//     unscheduled child with the smallest ALST) on that processor, so a
//     placement that strands the critical child is penalized.
//  3. Processor economy: only processors holding the node's parents —
//     plus one fresh processor — are examined, in that order, and a
//     fresh processor is chosen only when it strictly improves the
//     score. This is why DCP uses far fewer processors than DSC or LC
//     (paper Figure 3b discussion).
//
// Placement uses insertion. Starts are committed on placement (the
// published algorithm keeps them floating until the end; committing
// keeps every intermediate schedule concrete and validated).
func DCP(g *dag.Graph) (*sched.Schedule, error) {
	return ScheduleHet("DCP", g, nil)
}

// runDCP is DCP with an optional heterogeneous speed prefix: placement
// queries against the partial schedule are speed-aware.
func runDCP(g *dag.Graph, speeds []float64) (*sched.Schedule, error) {
	n := g.NumNodes()
	s := acquire(g, max(n, 1), speeds)
	if n == 0 {
		return s, nil
	}
	topo := g.TopoOrder()
	tl := make([]int64, n) // AEST
	bl := make([]int64, n)
	usedProcs := 0

	for s.Placed() < n {
		L := currentLevels(g, s, topo, tl, bl)
		// Ready node with minimum mobility (ALST - AEST = L - bl - tl).
		best := dag.None
		var bestMob, bestALST int64
		for v := 0; v < n; v++ {
			node := dag.NodeID(v)
			if s.IsScheduled(node) || !allParentsScheduled(g, s, node) {
				continue
			}
			mob := L - bl[node] - tl[node]
			alst := L - bl[node]
			if best == dag.None || mob < bestMob || (mob == bestMob && alst < bestALST) {
				best, bestMob, bestALST = node, mob, alst
			}
		}
		if best == dag.None {
			panic("unc: DCP found no ready node")
		}

		proc, start := dcpChooseProc(g, s, tl, bl, best, usedProcs)
		s.MustPlace(best, proc, start)
		if proc == usedProcs {
			usedProcs++
		}
	}
	return s, nil
}

// dcpChooseProc scores every used processor (ascending) plus one fresh
// processor by EST(best) + estimated EST(critical child) and returns the
// first strict winner with its start time. The published DCP examines
// the processors holding the node's parents and children plus one more;
// because this implementation schedules in ready order, children are
// never placed yet, and scanning all used processors (still "plus one
// more") preserves DCP's processor economy: a fresh processor is opened
// only when it strictly improves the composite score.
func dcpChooseProc(g *dag.Graph, s *sched.Schedule, tl, bl []int64, node dag.NodeID, fresh int) (int, int64) {
	candidates := make([]int, 0, fresh+1)
	for p := 0; p <= fresh; p++ {
		candidates = append(candidates, p)
	}

	cc := criticalChild(g, s, bl, tl, node)
	bestProc := -1
	var bestStart, bestScore int64
	for _, p := range candidates {
		est, ok := s.ESTOn(node, p, true)
		if !ok {
			panic("unc: DCP candidate with unscheduled parent")
		}
		score := est
		if cc != dag.None {
			score += childEstimate(g, s, tl, node, cc, p, est)
		}
		if bestProc == -1 || score < bestScore || (score == bestScore && est < bestStart) {
			bestProc, bestStart, bestScore = p, est, score
		}
	}
	return bestProc, bestStart
}

// criticalChild returns node's unscheduled child with the smallest ALST
// (equivalently the largest b-level among equals), or None.
func criticalChild(g *dag.Graph, s *sched.Schedule, bl, tl []int64, node dag.NodeID) dag.NodeID {
	best := dag.None
	var bestBL int64
	for _, a := range g.Succs(node) {
		if s.IsScheduled(a.To) {
			continue
		}
		if best == dag.None || bl[a.To] > bestBL || (bl[a.To] == bestBL && a.To < best) {
			best, bestBL = a.To, bl[a.To]
		}
	}
	return best
}

// childEstimate estimates how early the critical child could start on
// processor p if node were placed there finishing at est + w(node).
// Scheduled other-parents contribute concrete arrival times; unscheduled
// ones contribute their AEST-based estimates (assumed remote).
func childEstimate(g *dag.Graph, s *sched.Schedule, tl []int64, node, child dag.NodeID, p int, est int64) int64 {
	ready := est + g.Weight(node) // same processor: edge zeroed
	for _, pr := range g.Preds(child) {
		if pr.To == node {
			continue
		}
		var arrival int64
		if s.IsScheduled(pr.To) {
			arrival = s.FinishOf(pr.To)
			if s.ProcOf(pr.To) != p {
				arrival += pr.Weight
			}
		} else {
			arrival = tl[pr.To] + g.Weight(pr.To) + pr.Weight
		}
		if arrival > ready {
			ready = arrival
		}
	}
	return ready
}
