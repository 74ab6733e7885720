package apn

import (
	"slices"

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
// estimate promises an improvement, re-derives the schedule by replaying
// the per-processor sequences (machine.Replay.Migrate), keeping the
// migration only if the node's start time actually improved and the
// makespan did not grow. A replay is deterministic, so Migrate rewinds
// the schedule only to the first step the moved sequences can decide
// differently and replays the suffix after it, stopping as soon as the
// candidate is lost; the result equals a whole-schedule replay. The
// resulting schedules follow the published behaviour; only the running
// time constant differs.
func BSA(g *dag.Graph, topo *machine.Topology) (*machine.Schedule, error) {
	return ScheduleHet("BSA", g, topo, nil)
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
	seqs[pivot] = order

	r, err := machine.NewReplay(g, topo, seqs, speeds)
	if err != nil {
		return nil, err
	}
	s := r.Schedule()
	for _, p := range bfsProcs(topo, pivot) {
		// Snapshot: migrations change p's sequence as we iterate.
		resident := append([]dag.NodeID(nil), r.Sequence(p)...)
		for _, n := range resident {
			if current := s.ProcOf(n); current != p {
				continue // migrated away by an earlier step
			}
			bestProc := -1
			bestEst := s.StartOf(n)
			for _, nb := range topo.Neighbors(p) {
				// Only a strictly earlier start counts, so the probe
				// stops routing once it cannot reach bestEst-1.
				est, ok := s.ESTWithin(n, int(nb), true, bestEst-1)
				if ok && est < bestEst {
					bestEst, bestProc = est, int(nb)
				}
			}
			if bestProc < 0 {
				continue
			}
			// Insert by CPN-dominant rank, so every per-processor
			// sequence stays a subsequence of the global order. Migrate
			// keeps the old state when the estimate was optimistic, or
			// when bubbling this node earlier pushed its successors'
			// messages onto busier links and lengthened the schedule.
			// (The published BSA's incremental update reconsiders
			// displaced successors later; with replays the makespan
			// guard plays that role.)
			dst := r.Sequence(bestProc)
			pos := slices.IndexFunc(dst, func(m dag.NodeID) bool { return rank[n] < rank[m] })
			if pos < 0 {
				pos = len(dst)
			}
			r.Migrate(n, bestProc, pos)
		}
	}
	s.DiscardPlan() // the last neighbor probe may have left one
	return s, nil
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
