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
	"math"
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

// machineOf judges numProcs for the clustering s and returns the
// physical machine's speed prefix: the clustering's own first numProcs
// processors, nil when the clustering is homogeneous.
func machineOf(s *sched.Schedule, numProcs int) ([]float64, error) {
	if numProcs < 1 {
		return nil, fmt.Errorf("cs: need at least one processor, got %d", numProcs)
	}
	speeds := s.Speeds()
	if speeds == nil {
		return nil, nil
	}
	if numProcs > len(speeds) {
		return nil, fmt.Errorf("cs: %d processors exceed the %d speed factors of the clustering", numProcs, len(speeds))
	}
	return speeds[:numProcs], nil
}

// scheduleMapped list-schedules the graph in the b-level order with
// every node pinned to the processor its cluster was mapped to.
func scheduleMapped(g *dag.Graph, order []dag.NodeID, proc []int, numProcs int, speeds []float64) (*sched.Schedule, error) {
	out, err := sched.AcquireOn(g, numProcs, speeds)
	if err != nil {
		return nil, err
	}
	for _, n := range order {
		est, ok := out.ESTOn(n, proc[n], true)
		if !ok {
			panic("cs: b-level order not topological")
		}
		out.MustPlace(n, proc[n], est)
	}
	return out, nil
}

// Sarkar maps clusters onto processors one cluster at a time, in
// descending order of the clusters' highest b-level, choosing for each
// cluster the processor that minimizes the schedule length of the
// partial mapping. The estimate is the cluster-timing kernel
// algo.ClusterTimes over the mapped nodes, which interleaves execution
// orders as Sarkar's algorithm does; a try stops as soon as it reaches
// the best length so far.
func Sarkar(s *sched.Schedule, numProcs int) (*sched.Schedule, error) {
	speeds, err := machineOf(s, numProcs)
	if err != nil {
		return nil, err
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
	k := algo.NewClusterTimes(g, numProcs, speeds)
	for _, cluster := range clusters {
		bestProc := 0
		bestLen := int64(math.MaxInt64)
		for p := 0; p < numProcs; p++ {
			for _, n := range cluster {
				proc[n] = p
			}
			// A try completes only below the best length so far: the
			// strict choice, with the first try in effect unbounded.
			if l, ok := k.Run(proc, bestLen-1); ok {
				bestProc, bestLen = p, l
			}
		}
		for _, n := range cluster {
			proc[n] = bestProc
		}
	}
	return scheduleMapped(g, k.Order(), proc, numProcs, speeds)
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
// computation, ignoring execution order during merging, then
// list-schedules the pinned nodes. Each cluster goes to the processor
// whose load is least once the cluster's work, scaled by that
// processor's speed, is added, ties to the lower index; on a
// homogeneous machine that is the least-loaded processor.
func RCP(s *sched.Schedule, numProcs int) (*sched.Schedule, error) {
	speeds, err := machineOf(s, numProcs)
	if err != nil {
		return nil, err
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
	scaled := func(cluster []dag.NodeID, p int) int64 {
		var w int64
		for _, n := range cluster {
			w += sched.ScaledTime(g.Weight(n), speeds, p)
		}
		return w
	}
	for _, cluster := range clusters {
		best, bestLoad := 0, load[0]+scaled(cluster, 0)
		for p := 1; p < numProcs; p++ {
			if l := load[p] + scaled(cluster, p); l < bestLoad {
				best, bestLoad = p, l
			}
		}
		for _, n := range cluster {
			proc[n] = best
		}
		load[best] = bestLoad
	}
	return scheduleMapped(g, algo.PriorityOrder(g, dag.BLevels(g)), proc, numProcs, speeds)
}
