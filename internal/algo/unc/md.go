package unc

import (
	"repro/internal/dag"
	"repro/internal/sched"
)

// MD is the Mobility Directed algorithm of Wu and Gajski (1990).
//
// The relative mobility of an unscheduled node is
//
//	M(n) = (L − (t-level(n) + b-level(n))) / w(n)
//
// computed on the current graph, in which the communication cost of an
// edge is zeroed once both endpoints sit on the same processor and
// scheduled nodes are pinned at their start times. Nodes on the current
// critical path have zero mobility. MD repeatedly schedules the
// minimum-mobility node onto the first processor (in index order) that
// has an idle slot starting within the node's mobility window
// [t-level, ALAP]; if no used processor fits, a new one is opened —
// this scanning of used processors first is why MD needs relatively few
// processors (paper section 6.4.2).
//
// Simplification: the published MD can also displace previously placed
// nodes whose mobility windows allow it; here starts are committed on
// placement and node selection is restricted to nodes whose parents are
// scheduled, which keeps every intermediate schedule concrete. Mobility
// order still follows the dynamic critical path, which is the behaviour
// the paper's comparisons rest on.
func MD(g *dag.Graph) (*sched.Schedule, error) {
	return ScheduleHet("MD", g, nil)
}

// runMD is MD with an optional heterogeneous speed prefix: placement
// queries against the partial schedule are speed-aware.
func runMD(g *dag.Graph, speeds []float64) (*sched.Schedule, error) {
	n := g.NumNodes()
	s := acquire(g, max(n, 1), speeds)
	if n == 0 {
		return s, nil
	}
	topo := g.TopoOrder()
	tl := make([]int64, n)
	bl := make([]int64, n)
	usedProcs := 0

	for s.Placed() < n {
		L := currentLevels(g, s, topo, tl, bl)
		// Minimum relative mobility among ready unscheduled nodes.
		best := dag.None
		for v := 0; v < n; v++ {
			node := dag.NodeID(v)
			if s.IsScheduled(node) || !allParentsScheduled(g, s, node) {
				continue
			}
			if best == dag.None || lessMobility(g, L, tl, bl, node, best) {
				best = node
			}
		}
		if best == dag.None {
			panic("unc: MD found no ready node")
		}
		alap := L - bl[best]
		placed := false
		for p := 0; p < usedProcs; p++ {
			est, ok := s.ESTOn(best, p, true)
			if !ok {
				panic("unc: MD ready node has unscheduled parent")
			}
			if est <= alap {
				s.MustPlace(best, p, est)
				placed = true
				break
			}
		}
		if !placed {
			est, _ := s.ESTOn(best, usedProcs, true)
			s.MustPlace(best, usedProcs, est)
			usedProcs++
		}
	}
	return s, nil
}

// currentLevels fills tl and bl for the current partial schedule and
// returns the current critical-path length L = max(tl+bl). Scheduled
// nodes are pinned at their actual start; edges between co-located
// scheduled nodes carry no cost.
func currentLevels(g *dag.Graph, s *sched.Schedule, topo []dag.NodeID, tl, bl []int64) int64 {
	for _, v := range topo {
		if s.IsScheduled(v) {
			tl[v] = s.StartOf(v)
			continue
		}
		var t int64
		for _, p := range g.Preds(v) {
			c := p.Weight
			// The child is unscheduled, so the edge keeps its cost
			// unless the parent is unscheduled too — estimates stay
			// conservative either way.
			if arr := tl[p.To] + g.Weight(p.To) + c; arr > t {
				t = arr
			}
		}
		tl[v] = t
	}
	var L int64
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		var b int64
		for _, a := range g.Succs(v) {
			c := a.Weight
			if s.IsScheduled(v) && s.IsScheduled(a.To) && s.ProcOf(v) == s.ProcOf(a.To) {
				c = 0
			}
			if arr := c + bl[a.To]; arr > b {
				b = arr
			}
		}
		bl[v] = b + g.Weight(v)
		if c := tl[v] + bl[v]; c > L {
			L = c
		}
	}
	return L
}

func allParentsScheduled(g *dag.Graph, s *sched.Schedule, n dag.NodeID) bool {
	for _, p := range g.Preds(n) {
		if !s.IsScheduled(p.To) {
			return false
		}
	}
	return true
}

// lessMobility reports whether a has strictly smaller relative mobility
// than b (ties toward the smaller node ID), comparing
// (L-path(a))/w(a) < (L-path(b))/w(b) by cross multiplication.
func lessMobility(g *dag.Graph, L int64, tl, bl []int64, a, b dag.NodeID) bool {
	ma := L - (tl[a] + bl[a])
	mb := L - (tl[b] + bl[b])
	wa, wb := g.Weight(a), g.Weight(b)
	if wa == 0 {
		wa = 1
	}
	if wb == 0 {
		wb = 1
	}
	la := ma * wb
	lb := mb * wa
	if la != lb {
		return la < lb
	}
	return a < b
}
