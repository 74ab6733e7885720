package unc

import (
	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/sched"
)

// LC is the Linear Clustering algorithm of Kim and Browne (1988).
//
// LC repeatedly identifies the critical path of the not-yet-clustered
// part of the graph — path length counts node weights and the
// communication costs of edges between unclustered nodes — peels all of
// its nodes off into one new linear cluster, and continues until every
// node is clustered. Clusters are then ordered by descending b-level and
// placed one per processor.
//
// Like EZ, LC pays no attention to processor economy: the paper observes
// it uses more than 100 processors on 500-node graphs (section 6.4.2).
func LC(g *dag.Graph) (*sched.Schedule, error) {
	return ScheduleHet("LC", g, nil)
}

// runLC is LC with an optional heterogeneous speed prefix applied to
// the final cluster schedule (the clustering itself is graph-driven).
func runLC(g *dag.Graph, speeds []float64) (*sched.Schedule, error) {
	n := g.NumNodes()
	if n == 0 {
		return acquire(g, 1, speeds), nil
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	clustered := make([]bool, n)
	topo := g.TopoOrder()
	tl := make([]int64, n)
	bl := make([]int64, n)
	nextCluster := 0
	remaining := n
	for remaining > 0 {
		// Levels restricted to unclustered nodes and the edges between
		// them.
		for _, v := range topo {
			if clustered[v] {
				continue
			}
			tl[v] = 0
			for _, p := range g.Preds(v) {
				if clustered[p.To] {
					continue
				}
				if c := tl[p.To] + g.Weight(p.To) + p.Weight; c > tl[v] {
					tl[v] = c
				}
			}
		}
		var cpLen int64 = -1
		for i := n - 1; i >= 0; i-- {
			v := topo[i]
			if clustered[v] {
				continue
			}
			bl[v] = 0
			for _, a := range g.Succs(v) {
				if clustered[a.To] {
					continue
				}
				if c := a.Weight + bl[a.To]; c > bl[v] {
					bl[v] = c
				}
			}
			bl[v] += g.Weight(v)
			if c := tl[v] + bl[v]; c > cpLen {
				cpLen = c
			}
		}
		// Walk one critical path deterministically: start at the
		// smallest-ID unclustered entry achieving the CP length.
		cur := dag.None
		for _, v := range topo {
			if !clustered[v] && tl[v] == 0 && bl[v] == cpLen {
				cur = v
				break
			}
		}
		if cur == dag.None {
			panic("unc: LC found no critical-path head")
		}
		cluster := nextCluster
		nextCluster++
		for cur != dag.None {
			assign[cur] = cluster
			clustered[cur] = true
			remaining--
			next := dag.None
			for _, a := range g.Succs(cur) {
				if clustered[a.To] {
					continue
				}
				if tl[cur]+g.Weight(cur)+a.Weight == tl[a.To] &&
					tl[a.To]+bl[a.To] == cpLen {
					if next == dag.None || a.To < next {
						next = a.To
					}
				}
			}
			cur = next
		}
	}
	return algo.NewClusterTimes(g, nextCluster, speeds).Schedule(assign), nil
}
