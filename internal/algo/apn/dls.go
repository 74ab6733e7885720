package apn

import (
	"math"

	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/pq"
)

// DLS is the Dynamic Level Scheduling algorithm of Sih and Lee (1993) in
// its APN form: identical to the BNP variant except that earliest start
// times are obtained by tentatively routing every parent message over
// the contended network links.
//
// At each step the (ready node, processor) pair maximizing the dynamic
// level DL(n,p) = SL(n) − EST(n,p) is committed, ties toward the lower
// node and then the lower processor. The paper's exhaustive pair scan,
// with a message-routing query per pair, makes DLS the slowest APN
// algorithm in its running-time comparison (section 6.4.3) while
// keeping its schedule quality stable across graph sizes.
//
// Implementation note: the scan here is exact but pruned. Every pair
// gets the routing-free bound SL(n) − ESTLowerBound(n,p) ≥ DL(n,p);
// pairs are visited by descending bound, then node, then processor,
// and a pair's messages are routed only while its bound can still win
// the (DL, node, processor) tie-break against the best pair so far, and
// only until they show that the pair loses it (ESTWithin). The
// committed pair is the exhaustive scan's.
func DLS(g *dag.Graph, topo *machine.Topology) (*machine.Schedule, error) {
	return ScheduleHet("DLS", g, topo, nil)
}

// dlsPair is one (ready node, processor) candidate. drt is the
// routing-free lower bound on the node's data-ready time on proc, which
// is fixed once the node is ready because DLS never moves a placed
// node; ub = SL(node) − max(LastFinish(proc), drt) is the upper bound on
// the pair's dynamic level when it was pushed, and only falls as proc's
// last finish grows.
type dlsPair struct {
	node    dag.NodeID
	proc    int32
	drt, ub int64
}

// before orders the pair heap: descending bound, then node, then
// processor.
func before(a, b dlsPair) bool {
	return a.ub > b.ub || (a.ub == b.ub && (a.node < b.node || (a.node == b.node && a.proc < b.proc)))
}

// beats reports whether a pair with dynamic level dl beats the pair
// (node, proc) at level best under DLS's tie-break.
func beats(dl int64, n dag.NodeID, p int, best int64, node dag.NodeID, proc int) bool {
	return dl > best || (dl == best && (n < node || (n == node && p < proc)))
}

// runDLS is APN DLS with an optional heterogeneous speed vector.
//
// The heap holds every ready node's pairs under the bound they were
// pushed with, which is at least their current one. A popped pair whose
// bound fell is pushed back with the current one; otherwise it is
// probed, and pushed back after the step unless its node was placed.
// The step stops at the first pair whose stored bound cannot win: every
// pair left in the heap is bounded by it.
func runDLS(g *dag.Graph, topo *machine.Topology, speeds []float64) (*machine.Schedule, error) {
	sl := dag.StaticLevels(g)
	s, err := newSchedule(g, topo, speeds)
	if err != nil {
		return nil, err
	}
	pairs := pq.New(before)
	push := func(nodes []dag.NodeID) {
		for _, n := range nodes {
			for p := 0; p < topo.NumProcs(); p++ {
				drt, ok := s.DataReadyLowerBound(n, p)
				if !ok {
					panic("apn: DLS ready node has unscheduled parent")
				}
				pairs.Push(dlsPair{node: n, proc: int32(p), drt: drt, ub: sl[n] - max(s.LastFinish(p), drt)})
			}
		}
	}
	ready := algo.NewReadySet(g)
	push(ready.Ready())
	var probed []dlsPair
	for !ready.Empty() {
		bestNode := dag.None
		bestProc := -1
		var bestDL, bestEST int64
		probed = probed[:0]
		for pairs.Len() > 0 {
			c := pairs.Peek()
			n, p := c.node, int(c.proc)
			if bestNode != dag.None && !beats(c.ub, n, p, bestDL, bestNode, bestProc) {
				break // no pair left in the heap can win either
			}
			pairs.Pop()
			if s.IsScheduled(n) {
				continue
			}
			if ub := sl[n] - max(s.LastFinish(p), c.drt); ub < c.ub {
				c.ub = ub
				pairs.Push(c)
				continue
			}
			probed = append(probed, c)
			// The pair wins with an EST of at most limit: a higher
			// dynamic level, or an equal one with the smaller (node,
			// processor).
			limit := int64(math.MaxInt64)
			if bestNode != dag.None {
				limit = sl[n] - bestDL - 1
				if n < bestNode || (n == bestNode && p < bestProc) {
					limit++
				}
			}
			if est, _ := s.ESTWithin(n, p, false, limit); est <= limit {
				bestNode, bestProc, bestDL, bestEST = n, p, sl[n]-est, est
			}
		}
		for _, c := range probed {
			if c.node != bestNode {
				pairs.Push(c)
			}
		}
		ready.Pop(bestNode)
		s.MustPlace(bestNode, bestProc, bestEST)
		push(ready.MarkScheduled(g, bestNode))
	}
	return s, nil
}
