package bnp

import (
	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sched"
)

// ISH is the Insertion Scheduling Heuristic of Kruatrachue and Lewis
// (1987). It extends HLFET by filling the idle "hole" that a placement
// creates on a processor with other ready nodes.
//
// At each step the ready node with the highest static level is placed at
// its earliest start time over all processors (non-insertion). If the
// placement leaves an idle gap between the previous finish time on that
// processor and the node's start, ISH repeatedly picks the
// highest-priority ready node that can complete inside the gap and
// inserts it there. The paper (section 7) singles ISH out as evidence
// that "insertion is better than non-insertion": the hole filling yields
// dramatic improvements over plain HLFET at almost no complexity cost.
func ISH(g *dag.Graph, numProcs int) (*sched.Schedule, error) {
	return ScheduleHet("ISH", g, numProcs, nil)
}

// runISH is the ISH loop on a prepared schedule.
func runISH(g *dag.Graph, s *sched.Schedule) {
	sc := acquireScratch(g)
	defer sc.release()
	sl := sc.lv.Static
	ready := algo.AcquireReadyHeap(g, sl)
	defer ready.Release()
	for !ready.Empty() {
		n := ready.PopMax()
		p, est, ok := s.BestEST(n, false)
		if !ok {
			panic("bnp: ISH popped node with unscheduled parent")
		}
		obs.TracePriority(int32(n), sl[n])
		var holeStart int64
		if slots := s.Slots(p); len(slots) > 0 {
			holeStart = slots[len(slots)-1].Finish
		}
		s.MustPlace(n, p, est)
		ready.MarkScheduled(g, n)
		if est > holeStart {
			fillHole(g, s, ready, sl, p, est)
		}
	}
}

// fillHole inserts ready nodes into idle time on processor p before the
// hole end, highest static level first, until no ready node fits.
func fillHole(g *dag.Graph, s *sched.Schedule, ready *algo.ReadyHeap, sl []int64, p int, holeEnd int64) {
	for {
		best := dag.None
		var bestStart int64
		for _, m := range ready.Ready() {
			est, ok := s.ESTOn(m, p, true)
			if !ok {
				continue
			}
			if est+s.ExecTime(m, p) > holeEnd {
				continue // does not complete inside the hole
			}
			if best == dag.None || sl[m] > sl[best] || (sl[m] == sl[best] && m < best) {
				best, bestStart = m, est
			}
		}
		if best == dag.None {
			return
		}
		ready.Remove(best)
		obs.TracePriority(int32(best), sl[best])
		s.MustPlace(best, p, bestStart)
		ready.MarkScheduled(g, best)
	}
}
