package unc

import (
	"math"
	"sort"

	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/sched"
)

// EZ is Sarkar's Edge Zeroing algorithm (1989).
//
// Edges are examined in descending order of communication cost. For each
// edge, the clusters of its endpoints are tentatively merged ("the edge
// is zeroed"); the merge is kept if the estimated parallel time — the
// length of the schedule obtained by placing each cluster on its own
// processor with nodes in descending b-level order — does not increase.
//
// EZ is non-greedy (it does not minimize individual start times) and not
// critical-path driven; the paper finds it and LC generally behind the
// greedy BNP algorithms (section 6.1), at O(e·(e+v)) cost.
//
// Implementation note: a merge is scored by the schedule-free length
// kernel shared with LC and Sarkar's cluster mapper
// (algo.ClusterTimes), which stops as soon as the partial length
// exceeds the best one; only the final assignment is built into a
// schedule, so a decision trace holds one placement record per node.
func EZ(g *dag.Graph) (*sched.Schedule, error) {
	return ScheduleHet("EZ", g, nil)
}

// runEZ is EZ with an optional heterogeneous speed prefix: both the
// per-merge parallel-time estimates and the final schedule use it, so
// the zeroing decisions account for processor speeds.
func runEZ(g *dag.Graph, speeds []float64) (*sched.Schedule, error) {
	n := g.NumNodes()
	if n == 0 {
		return acquire(g, 1, speeds), nil
	}

	type edge struct {
		from, to dag.NodeID
		weight   int64
	}
	edges := make([]edge, 0, g.NumEdges())
	for v := 0; v < n; v++ {
		for _, a := range g.Succs(dag.NodeID(v)) {
			edges = append(edges, edge{dag.NodeID(v), a.To, a.Weight})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].weight != edges[j].weight {
			return edges[i].weight > edges[j].weight
		}
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})

	assign := make([]int, n) // node -> cluster label
	members := make([][]dag.NodeID, n)
	for v := 0; v < n; v++ {
		assign[v] = v
		members[v] = []dag.NodeID{dag.NodeID(v)}
	}
	k := algo.NewClusterTimes(g, n, speeds)
	merge := func(dst, src int) {
		for _, m := range members[src] {
			assign[m] = dst
		}
		members[dst] = append(members[dst], members[src]...)
		members[src] = nil
	}

	best, _ := k.Run(assign, math.MaxInt64)
	for _, e := range edges {
		cu, cv := assign[e.from], assign[e.to]
		if cu == cv {
			continue // already zeroed transitively
		}
		// Merge the smaller membership list into the larger.
		if len(members[cu]) < len(members[cv]) {
			cu, cv = cv, cu
		}
		moved := len(members[cv])
		merge(cu, cv)
		if l, ok := k.Run(assign, best); ok {
			best = l // keep the merge
			continue
		}
		// Roll back: the moved nodes are the tail of members[cu].
		tail := members[cu][len(members[cu])-moved:]
		for _, m := range tail {
			assign[m] = cv
		}
		members[cv] = append(members[cv], tail...)
		members[cu] = members[cu][:len(members[cu])-moved]
	}
	return k.Schedule(assign), nil
}
