package apn

import (
	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/machine"
)

// BU is the Bottom-Up algorithm of Mehdiratta and Ghose (1994).
//
// BU first maps every critical-path node to a single processor — the
// best-connected one — and then assigns the remaining nodes in reverse
// topological order (hence bottom-up): each node goes to the processor
// that minimizes its outgoing communication, weighted by the hop
// distance to its already-assigned children, with processor load as the
// tie-breaker. Once the assignment is fixed, tasks and messages are
// scheduled by replaying the per-processor sequences in b-level order.
//
// The paper finds BU the fastest APN algorithm but with erratic schedule
// quality (section 6.4): assignment decisions never revisit start times.
func BU(g *dag.Graph, topo *machine.Topology) (*machine.Schedule, error) {
	return ScheduleHet("BU", g, topo, nil)
}

// runBU is BU with an optional heterogeneous speed vector, applied when
// the fixed assignment is replayed into a schedule (the assignment pass
// itself is load- and distance-driven, not time-driven).
func runBU(g *dag.Graph, topo *machine.Topology, speeds []float64) (*machine.Schedule, error) {
	if g.NumNodes() == 0 {
		return newSchedule(g, topo, speeds)
	}
	return machine.ReplaySequencesHet(g, topo, buSequences(g, topo), speeds)
}

// buSequences returns BU's fixed assignment of a non-empty graph as one
// execution sequence per processor, each in global b-level order.
func buSequences(g *dag.Graph, topo *machine.Topology) [][]dag.NodeID {
	n := g.NumNodes()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	// Critical path onto the best-connected processor.
	pivot := bestConnectedProc(topo)
	for _, c := range dag.CriticalPath(g) {
		assign[c] = pivot
	}
	load := make([]int64, topo.NumProcs())
	for v := 0; v < n; v++ {
		if assign[v] == pivot {
			load[pivot] += g.Weight(dag.NodeID(v))
		}
	}
	// Remaining nodes in reverse topological order: children first.
	topoOrder := g.TopoOrder()
	for i := n - 1; i >= 0; i-- {
		v := topoOrder[i]
		if assign[v] >= 0 {
			continue
		}
		bestP := -1
		var bestCost, bestLoad int64
		for p := 0; p < topo.NumProcs(); p++ {
			// Outgoing communication weighted by hop distance, plus the
			// processor's accumulated load: Mehdiratta and Ghose's
			// bottom-up pass minimizes communication while spreading
			// computation, so pure pivot-stacking is penalized.
			cost := load[p]
			for _, a := range g.Succs(v) {
				if assign[a.To] >= 0 {
					cost += a.Weight * int64(topo.Dist(p, assign[a.To]))
				}
			}
			if bestP == -1 || cost < bestCost || (cost == bestCost && load[p] < bestLoad) {
				bestP, bestCost, bestLoad = p, cost, load[p]
			}
		}
		assign[v] = bestP
		load[bestP] += g.Weight(v)
	}
	// Per-processor sequences in global b-level order.
	seqs := make([][]dag.NodeID, topo.NumProcs())
	for _, v := range algo.PriorityOrder(g, dag.BLevels(g)) {
		seqs[assign[v]] = append(seqs[assign[v]], v)
	}
	return seqs
}

// bestConnectedProc returns the processor with the highest degree,
// breaking ties toward the lowest index.
func bestConnectedProc(topo *machine.Topology) int {
	best := 0
	for p := 1; p < topo.NumProcs(); p++ {
		if topo.Degree(p) > topo.Degree(best) {
			best = p
		}
	}
	return best
}
