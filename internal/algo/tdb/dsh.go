package tdb

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/dag"
)

// DSH is the Duplication Scheduling Heuristic of Kruatrachue and Lewis
// (1988), the earliest widely cited TDB algorithm (paper section 4's
// chronology).
//
// DSH is HLFET with a duplication pass: nodes are taken in descending
// static-level order, and for each candidate processor the idle period
// between the processor's frontier and the node's communication-bound
// earliest start (the "duplication time slot") is filled with copies of
// the node's critical parents — the parents whose messages arrive last —
// as long as each copy reduces the node's start time. The processor with
// the smallest resulting start wins.
func DSH(g *dag.Graph, numProcs int) (*DupSchedule, error) {
	if g == nil {
		return nil, fmt.Errorf("tdb: nil graph")
	}
	if numProcs < 1 {
		return nil, fmt.Errorf("tdb: need at least one processor, got %d", numProcs)
	}
	sl := dag.StaticLevels(g)
	d := NewDupSchedule(g, numProcs)
	for _, n := range algo.PriorityOrder(g, sl) {
		bestProc := -1
		var bestStart int64
		var bestDups []dupPlan
		for p := 0; p < numProcs; p++ {
			start, dups := d.evaluateWithDuplication(n, p)
			if bestProc == -1 || start < bestStart {
				bestProc, bestStart, bestDups = p, start, dups
			}
		}
		for _, dup := range bestDups {
			if err := d.place(dup.node, bestProc, dup.start); err != nil {
				return nil, err
			}
		}
		if err := d.place(n, bestProc, bestStart); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// dupPlan is one planned duplicate: a copy of node starting at start on
// the candidate processor.
type dupPlan struct {
	node  dag.NodeID
	start int64
}

// evaluateWithDuplication computes the start time of n on processor p if
// the duplication slot is filled greedily with critical parents, without
// mutating the schedule. Returned dups are in execution order.
func (d *DupSchedule) evaluateWithDuplication(n dag.NodeID, p int) (int64, []dupPlan) {
	frontier := d.ProcEnd(p)
	// local tracks tentative extra copies on p: node -> finish time.
	local := map[dag.NodeID]int64{}
	var dups []dupPlan

	arrival := func(m dag.NodeID, edgeCost int64) int64 {
		if f, ok := local[m]; ok {
			return f // tentative local copy
		}
		a, ok := d.Arrival(m, p, edgeCost)
		if !ok {
			panic("tdb: DSH parent without copy")
		}
		return a
	}
	drt := func(m dag.NodeID) (int64, dag.NodeID) {
		var t int64
		crit := dag.None
		for _, pr := range d.g.Preds(m) {
			if a := arrival(pr.To, pr.Weight); a > t {
				t = a
				crit = pr.To
			}
		}
		return t, crit
	}

	start := func() int64 {
		t, _ := drt(n)
		if t < frontier {
			t = frontier
		}
		return t
	}

	cur := start()
	for {
		_, crit := drt(n)
		if crit == dag.None {
			break // no remote critical parent left
		}
		if _, already := local[crit]; already {
			break
		}
		if hasCopyOn(d, crit, p) {
			break // critical parent is already local; nothing to gain
		}
		// A duplicate of crit must itself wait for crit's inputs on p.
		dupDRT, _ := drt(crit)
		dupStart := dupDRT
		if dupStart < frontier {
			dupStart = frontier
		}
		dupFinish := dupStart + d.g.Weight(crit)
		// Tentatively adopt the duplicate and see whether n improves.
		local[crit] = dupFinish
		oldFrontier := frontier
		frontier = dupFinish
		if newStart := start(); newStart < cur {
			cur = newStart
			dups = append(dups, dupPlan{crit, dupStart})
			continue
		}
		// No improvement: roll back and stop.
		delete(local, crit)
		frontier = oldFrontier
		break
	}
	return cur, dups
}

func hasCopyOn(d *DupSchedule, n dag.NodeID, p int) bool {
	for _, c := range d.copies[n] {
		if c.Proc == p {
			return true
		}
	}
	return false
}
