package apn

import (
	"repro/internal/dag"
	"repro/internal/machine"
)

// BSA is the Bubble Scheduling and Allocation algorithm of Kwok and
// Ahmad (1995).
//
// BSA first serializes the whole graph onto a pivot processor (the
// best-connected one) in CPN-dominant order — critical-path nodes as
// early as possible, each preceded by its ancestors. It then visits the
// processors in breadth-first order from the pivot; on each processor it
// reconsiders every resident node and migrates it to an adjacent
// processor when that strictly reduces the node's start time, letting
// the nodes left behind "bubble up" into the vacated slack. Messages are
// rescheduled along with every accepted migration, which is why the
// paper credits BSA's strength on large graphs to its "efficient
// scheduling of communication messages" (section 6.4.1).
//
// Implementation note: the published algorithm updates the schedule
// incrementally around each migration; this implementation evaluates a
// candidate migration with a cheap routed-EST estimate and, when the
// estimate promises an improvement, rebuilds the schedule by replaying
// the per-processor sequences (machine.ReplaySequencesHet), keeping the
// migration only if the node's start time actually improved. The
// resulting schedules follow the published behaviour; only the running
// time constant differs.
func BSA(g *dag.Graph, topo *machine.Topology) (*machine.Schedule, error) {
	if err := checkArgs(g, topo); err != nil {
		return nil, err
	}
	return runBSA(g, topo, nil)
}

// runBSA is BSA with an optional heterogeneous speed vector: the serial
// pivot schedule, every migration-candidate replay, and the migration
// accept/reject comparisons are all speed-aware.
func runBSA(g *dag.Graph, topo *machine.Topology, speeds []float64) (*machine.Schedule, error) {
	if g.NumNodes() == 0 {
		return newSchedule(g, topo, speeds)
	}
	order := cpnDominantOrder(g)
	rank := make([]int, g.NumNodes())
	for i, n := range order {
		rank[n] = i
	}
	pivot := bestConnectedProc(topo)
	seqs := make([][]dag.NodeID, topo.NumProcs())
	seqs[pivot] = append([]dag.NodeID(nil), order...)

	s, err := machine.ReplaySequencesHet(g, topo, seqs, speeds)
	if err != nil {
		return nil, err
	}

	for _, p := range bfsProcs(topo, pivot) {
		// Snapshot: migrations mutate seqs[p] as we iterate.
		resident := append([]dag.NodeID(nil), seqs[p]...)
		for _, n := range resident {
			if current := s.ProcOf(n); current != p {
				continue // migrated away by an earlier step
			}
			bestProc := -1
			bestEst := s.StartOf(n)
			for _, nb := range topo.Neighbors(p) {
				est, ok := s.ESTOn(n, int(nb), true)
				if !ok {
					continue
				}
				if est < bestEst {
					bestEst, bestProc = est, int(nb)
				}
			}
			if bestProc < 0 {
				continue
			}
			candidate := moveNode(seqs, n, p, bestProc, rank)
			ns, err := machine.ReplaySequencesHet(g, topo, candidate, speeds)
			if err != nil || ns.StartOf(n) >= s.StartOf(n) || ns.Length() > s.Length() {
				// The estimate was optimistic, or bubbling this node
				// earlier pushed its successors' messages onto busier
				// links and lengthened the schedule: keep the old state.
				// (The published BSA's incremental update reconsiders
				// displaced successors later; with whole-schedule
				// replays the makespan guard plays that role.)
				continue
			}
			seqs = candidate
			s = ns
		}
	}
	return s, nil
}

// moveNode returns a copy of seqs with n moved from processor from to
// processor to, inserted by CPN-dominant rank so every per-processor
// sequence stays a subsequence of the global order.
func moveNode(seqs [][]dag.NodeID, n dag.NodeID, from, to int, rank []int) [][]dag.NodeID {
	out := make([][]dag.NodeID, len(seqs))
	for i := range seqs {
		switch i {
		case from:
			for _, m := range seqs[i] {
				if m != n {
					out[i] = append(out[i], m)
				}
			}
		case to:
			inserted := false
			for _, m := range seqs[i] {
				if !inserted && rank[n] < rank[m] {
					out[i] = append(out[i], n)
					inserted = true
				}
				out[i] = append(out[i], m)
			}
			if !inserted {
				out[i] = append(out[i], n)
			}
		default:
			out[i] = append([]dag.NodeID(nil), seqs[i]...)
		}
	}
	return out
}

// bfsProcs returns the processors in breadth-first order from the pivot.
func bfsProcs(topo *machine.Topology, pivot int) []int {
	seen := make([]bool, topo.NumProcs())
	order := []int{pivot}
	seen[pivot] = true
	for head := 0; head < len(order); head++ {
		for _, nb := range topo.Neighbors(order[head]) {
			if !seen[nb] {
				seen[nb] = true
				order = append(order, int(nb))
			}
		}
	}
	return order
}
