package apn

import (
	"cmp"
	"slices"

	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/machine"
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
// and a pair's messages are routed (ESTOn) only while its bound can
// still win the (DL, node, processor) tie-break against the best pair
// so far. The committed pair is the exhaustive scan's.
func DLS(g *dag.Graph, topo *machine.Topology) (*machine.Schedule, error) {
	if err := checkArgs(g, topo); err != nil {
		return nil, err
	}
	return runDLS(g, topo, nil)
}

// dlsPair is one (ready node, processor) candidate with the upper bound
// on its dynamic level.
type dlsPair struct {
	node dag.NodeID
	proc int
	ub   int64
}

// beats reports whether a pair with dynamic level dl beats the pair
// (node, proc) at level best under DLS's tie-break.
func beats(dl int64, n dag.NodeID, p int, best int64, node dag.NodeID, proc int) bool {
	return dl > best || (dl == best && (n < node || (n == node && p < proc)))
}

// runDLS is APN DLS with an optional heterogeneous speed vector.
func runDLS(g *dag.Graph, topo *machine.Topology, speeds []float64) (*machine.Schedule, error) {
	sl := dag.StaticLevels(g)
	s, err := newSchedule(g, topo, speeds)
	if err != nil {
		return nil, err
	}
	ready := algo.NewReadySet(g)
	var pairs []dlsPair
	for !ready.Empty() {
		pairs = pairs[:0]
		for _, n := range ready.Ready() {
			for p := 0; p < topo.NumProcs(); p++ {
				lb, ok := s.ESTLowerBound(n, p)
				if !ok {
					panic("apn: DLS ready node has unscheduled parent")
				}
				pairs = append(pairs, dlsPair{node: n, proc: p, ub: sl[n] - lb})
			}
		}
		slices.SortFunc(pairs, func(a, b dlsPair) int {
			if c := cmp.Compare(b.ub, a.ub); c != 0 {
				return c
			}
			if c := cmp.Compare(a.node, b.node); c != 0 {
				return c
			}
			return cmp.Compare(a.proc, b.proc)
		})
		bestNode := dag.None
		bestProc := -1
		var bestDL, bestEST int64
		for _, c := range pairs {
			if bestNode != dag.None && !beats(c.ub, c.node, c.proc, bestDL, bestNode, bestProc) {
				break // the bound order puts no later pair ahead either
			}
			est, _ := s.ESTOn(c.node, c.proc, false)
			if dl := sl[c.node] - est; bestNode == dag.None || beats(dl, c.node, c.proc, bestDL, bestNode, bestProc) {
				bestNode, bestProc, bestDL, bestEST = c.node, c.proc, dl, est
			}
		}
		ready.Pop(bestNode)
		s.MustPlace(bestNode, bestProc, bestEST)
		ready.MarkScheduled(g, bestNode)
	}
	return s, nil
}
