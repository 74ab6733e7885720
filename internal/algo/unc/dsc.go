package unc

import (
	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/sched"
)

// DSC is the Dominant Sequence Clustering algorithm of Yang and
// Gerasoulis (1994).
//
// Nodes are examined in a topological sweep: a node is free once all its
// parents have been examined, and among free nodes the one with the
// highest t-level + b-level priority — the head of the current dominant
// sequence — is examined next. The node joins the cluster of one of its
// parents when doing so strictly reduces its start time (zeroing the
// edge from that parent); otherwise it starts a new cluster. Because
// examination order is topological, start times are final as soon as a
// node is examined.
//
// This implementation follows DSC-I, without the DSRW (dominant sequence
// reduction warranty) refinement for partially free nodes; the paper's
// qualitative findings — DSC close behind DCP, large processor counts
// because every non-reducing node opens a new cluster (Figure 3a) — are
// driven by the merge rule implemented here.
func DSC(g *dag.Graph) (*sched.Schedule, error) {
	return ScheduleHet("DSC", g, nil)
}

// runDSC is DSC with an optional heterogeneous speed prefix: the
// incremental start times that drive the merge decisions are speed-aware.
func runDSC(g *dag.Graph, speeds []float64) (*sched.Schedule, error) {
	n := g.NumNodes()
	s := acquire(g, max(n, 1), speeds)
	if n == 0 {
		return s, nil
	}
	bl := dag.BLevels(g) // descendants are unexamined, so static b-levels stay exact
	// tl is the current t-level: the earliest start with every incoming
	// edge still carrying communication. A free node's parents are all
	// placed and never move, so its t-level, and with it its priority
	// t-level + b-level, is final by the time it enters the heap.
	tl := make([]int64, n)
	prio := append([]int64(nil), bl...) // entry nodes: t-level 0
	clusterEnd := make([]int64, n)
	// local[c] is the latest finish of the examined node's parents in
	// cluster c while the join scan runs, -1 otherwise; clusters lists
	// the parent clusters the scan met.
	local := make([]int64, n)
	for c := range local {
		local[c] = -1
	}
	var clusters []int
	nextCluster := 0

	free := algo.AcquireReadyHeap(g, prio)
	defer free.Release()
	for !free.Empty() {
		node := free.PopMax()

		// Starting a fresh cluster keeps every incoming edge unzeroed.
		newEST := tl[node]
		// Joining a parent's cluster c zeroes the edges from c's parents
		// but must wait for c to drain: c starts node at the latest of
		// clusterEnd[c], the finishes of node's parents in c, and the
		// arrivals (finish + edge cost) of its parents elsewhere. One pass
		// keeps each parent cluster's latest local finish and the two
		// latest arrivals from distinct clusters; the latest arrival from
		// outside c is the top one unless c holds it.
		clusters = clusters[:0]
		var top1, top2 int64
		top1c := -1
		for _, pr := range g.Preds(node) {
			c := s.ProcOf(pr.To)
			if c < 0 {
				panic("unc: DSC free node has unexamined parent")
			}
			f := s.FinishOf(pr.To)
			if local[c] < 0 {
				clusters = append(clusters, c)
			}
			local[c] = max(local[c], f)
			switch arr := f + pr.Weight; {
			case c == top1c:
				top1 = max(top1, arr)
			case arr > top1:
				top1, top2, top1c = arr, top1, c
			default:
				top2 = max(top2, arr)
			}
		}
		bestCluster := -1
		var bestEST int64
		for _, c := range clusters {
			remote := top1
			if c == top1c {
				remote = top2
			}
			est := max(clusterEnd[c], local[c], remote)
			local[c] = -1
			if bestCluster == -1 || est < bestEST || (est == bestEST && c < bestCluster) {
				bestCluster, bestEST = c, est
			}
		}
		var proc int
		var start int64
		if bestCluster >= 0 && bestEST < newEST {
			proc, start = bestCluster, bestEST
		} else {
			proc, start = nextCluster, newEST
			nextCluster++
		}
		s.MustPlace(node, proc, start)
		finish := s.FinishOf(node)
		clusterEnd[proc] = finish
		for _, a := range g.Succs(node) {
			if t := finish + a.Weight; t > tl[a.To] {
				tl[a.To] = t
				prio[a.To] = t + bl[a.To]
			}
		}
		free.MarkScheduled(g, node)
	}
	return s, nil
}
