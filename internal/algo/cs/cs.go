// Package cs implements cluster scheduling (CS): the post-processing
// step that maps the clusters produced by a UNC algorithm onto a bounded
// number of physical processors. Kwok & Ahmad (IPPS 1998, section 7)
// describe the two classical algorithms implemented here and pose the
// BNP-versus-UNC+CS comparison as an open study; the harness's "unccs"
// experiment runs that comparison.
//
//   - Sarkar's assignment algorithm [Sarkar 1989] combines cluster
//     merging and node ordering in one pass: nodes are visited in
//     descending b-level order and each unmapped cluster is merged into
//     the physical processor that minimizes the resulting schedule
//     length estimate, considering execution order.
//
//   - Yang's RCP ("ready critical path") algorithm [Yang 1993] merges
//     clusters without considering execution order: clusters are sorted
//     by aggregate work and wrap-mapped onto the processors to balance
//     load, after which nodes are list-scheduled in b-level order. RCP
//     has lower complexity but can make poor merging decisions, exactly
//     the trade-off the paper describes.
package cs

import (
	"fmt"
	"sort"

	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/sched"
)

// Mapper maps a clustering (the UNC schedule s, whose processors are
// clusters) onto numProcs physical processors.
type Mapper func(s *sched.Schedule, numProcs int) (*sched.Schedule, error)

// Mappers returns the registered cluster-scheduling algorithms.
func Mappers() map[string]Mapper {
	return map[string]Mapper{
		"SARKAR": Sarkar,
		"RCP":    RCP,
	}
}

// clustersOf extracts the non-empty clusters of a UNC schedule as node
// lists ordered by start time.
func clustersOf(s *sched.Schedule) [][]dag.NodeID {
	var out [][]dag.NodeID
	for p := 0; p < s.NumProcs(); p++ {
		slots := s.Slots(p)
		if len(slots) == 0 {
			continue
		}
		cluster := make([]dag.NodeID, len(slots))
		for i, sl := range slots {
			cluster[i] = sl.Node
		}
		out = append(out, cluster)
	}
	return out
}

// scheduleMapped list-schedules the graph in descending b-level order
// with every node pinned to the processor its cluster was mapped to.
func scheduleMapped(g *dag.Graph, proc []int, numProcs int) *sched.Schedule {
	out := sched.Acquire(g, numProcs)
	for _, n := range algo.PriorityOrder(g, dag.BLevels(g)) {
		est, ok := out.ESTOn(n, proc[n], true)
		if !ok {
			panic("cs: b-level order not topological")
		}
		out.MustPlace(n, proc[n], est)
	}
	return out
}

// Sarkar maps clusters onto processors one cluster at a time, in
// descending order of the clusters' highest b-level, choosing for each
// cluster the processor that minimizes the schedule length of the
// partial mapping (estimated by the pinned list schedule above, which
// interleaves execution orders as Sarkar's algorithm does).
func Sarkar(s *sched.Schedule, numProcs int) (*sched.Schedule, error) {
	if numProcs < 1 {
		return nil, fmt.Errorf("cs: need at least one processor, got %d", numProcs)
	}
	g := s.Graph()
	clusters := clustersOf(s)
	bl := dag.BLevels(g)
	sort.SliceStable(clusters, func(i, j int) bool {
		return maxBL(bl, clusters[i]) > maxBL(bl, clusters[j])
	})

	proc := make([]int, g.NumNodes())
	for i := range proc {
		proc[i] = -1
	}
	mapped := make([]dag.NodeID, 0, g.NumNodes())
	for _, cluster := range clusters {
		bestProc := -1
		var bestLen int64
		for p := 0; p < numProcs; p++ {
			for _, n := range cluster {
				proc[n] = p
			}
			l := partialLength(g, bl, proc, append(mapped, cluster...), numProcs)
			if bestProc == -1 || l < bestLen {
				bestProc, bestLen = p, l
			}
		}
		for _, n := range cluster {
			proc[n] = bestProc
		}
		mapped = append(mapped, cluster...)
	}
	return scheduleMapped(g, proc, numProcs), nil
}

// partialLength estimates the schedule length of the already-mapped
// nodes by list-scheduling the induced subgraph in the b-level order bl.
func partialLength(g *dag.Graph, bl []int64, proc []int, mapped []dag.NodeID, numProcs int) int64 {
	inSet := make([]bool, g.NumNodes())
	for _, n := range mapped {
		inSet[n] = true
	}
	order := append([]dag.NodeID(nil), mapped...)
	sort.SliceStable(order, func(i, j int) bool {
		if bl[order[i]] != bl[order[j]] {
			return bl[order[i]] > bl[order[j]]
		}
		return order[i] < order[j]
	})
	out := sched.Acquire(g, numProcs)
	// Place in b-level order, skipping dependencies outside the mapped
	// set (their data is treated as available at time 0).
	for _, n := range order {
		drt := int64(0)
		for _, pr := range g.Preds(n) {
			if !inSet[pr.To] {
				continue
			}
			arrival := out.FinishOf(pr.To)
			if out.ProcOf(pr.To) != proc[n] {
				arrival += pr.Weight
			}
			if arrival > drt {
				drt = arrival
			}
		}
		// Manual placement on the pinned processor, after its last task
		// (no gap search).
		out.MustPlace(n, proc[n], max(drt, out.LastFinish(proc[n])))
	}
	l := out.Length()
	out.Release() // trial schedule: only its length is used
	return l
}

func maxBL(bl []int64, cluster []dag.NodeID) int64 {
	var m int64
	for _, n := range cluster {
		if bl[n] > m {
			m = bl[n]
		}
	}
	return m
}

// RCP wrap-maps clusters onto processors by descending aggregate
// computation (largest cluster to the least-loaded processor), ignoring
// execution order during merging, then list-schedules the pinned nodes.
func RCP(s *sched.Schedule, numProcs int) (*sched.Schedule, error) {
	if numProcs < 1 {
		return nil, fmt.Errorf("cs: need at least one processor, got %d", numProcs)
	}
	g := s.Graph()
	clusters := clustersOf(s)
	work := func(cluster []dag.NodeID) int64 {
		var w int64
		for _, n := range cluster {
			w += g.Weight(n)
		}
		return w
	}
	sort.SliceStable(clusters, func(i, j int) bool {
		return work(clusters[i]) > work(clusters[j])
	})
	proc := make([]int, g.NumNodes())
	load := make([]int64, numProcs)
	for _, cluster := range clusters {
		best := 0
		for p := 1; p < numProcs; p++ {
			if load[p] < load[best] {
				best = p
			}
		}
		for _, n := range cluster {
			proc[n] = best
		}
		load[best] += work(cluster)
	}
	return scheduleMapped(g, proc, numProcs), nil
}
