package machine

import (
	"fmt"

	"repro/internal/dag"
)

// ReplaySequencesHet builds a complete schedule from an assignment
// expressed as one execution sequence per processor. It repeatedly
// places, among the heads of the remaining sequences whose parents are
// all scheduled, the node with the smallest earliest start time (ties
// toward the lower processor index), using non-insertion placement so
// each processor runs its sequence in the given order.
//
// The optional speed vector (one positive factor per processor, nil for
// uniform) is applied to the schedule before any placement, so both the
// earliest-start selection and the committed execution times are
// speed-aware.
//
// Migration-style algorithms (BSA) use this to re-derive a consistent
// task-and-message schedule after moving nodes between processors.
func ReplaySequencesHet(g *dag.Graph, topo *Topology, seqs [][]dag.NodeID, speeds []float64) (*Schedule, error) {
	if len(seqs) != topo.NumProcs() {
		return nil, fmt.Errorf("machine: %d sequences for %d processors", len(seqs), topo.NumProcs())
	}
	seen := make([]bool, g.NumNodes())
	total := 0
	for _, q := range seqs {
		for _, n := range q {
			if n < 0 || int(n) >= g.NumNodes() {
				return nil, fmt.Errorf("machine: sequence references unknown node %d", n)
			}
			if seen[n] {
				return nil, fmt.Errorf("machine: node %d appears twice in sequences", n)
			}
			seen[n] = true
			total++
		}
	}
	if total != g.NumNodes() {
		return nil, fmt.Errorf("machine: sequences cover %d of %d nodes", total, g.NumNodes())
	}

	s := NewSchedule(g, topo)
	if speeds != nil {
		if err := s.SetSpeeds(speeds); err != nil {
			return nil, err
		}
	}
	idx := make([]int, len(seqs))
	for s.Placed() < g.NumNodes() {
		bestProc := -1
		var bestEST int64
		var bestNode dag.NodeID
		for p, q := range seqs {
			if idx[p] >= len(q) {
				continue
			}
			n := q[idx[p]]
			est, ok := s.ESTOn(n, p, false)
			if !ok {
				continue // a parent is not scheduled yet
			}
			if bestProc == -1 || est < bestEST || (est == bestEST && n < bestNode) {
				bestProc, bestEST, bestNode = p, est, n
			}
		}
		if bestProc == -1 {
			return nil, fmt.Errorf("machine: sequences deadlock after %d placements "+
				"(per-processor order conflicts with precedence)", s.Placed())
		}
		s.MustPlace(bestNode, bestProc, bestEST)
		idx[bestProc]++
	}
	return s, nil
}
