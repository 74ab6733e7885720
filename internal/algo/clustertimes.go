package algo

import (
	"math"

	"repro/internal/dag"
	"repro/internal/sched"
)

// ClusterTimes is the schedule-free cluster-timing kernel shared by the
// clusterers EZ and LC and by Sarkar's cluster mapper: the nodes of an
// assignment (node -> processor) are placed in the b-level order
// PriorityOrder(g, dag.BLevels(g)), each at its earliest start on its
// processor without insertion. A placement in that model depends only
// on the finishes of the node's parents and of the processor's previous
// node, so one pass over the order computes every start without
// building a schedule.
//
// An assignment may be partial: a node whose entry is negative is not
// mapped yet. The pass skips it, and its data delays no child, as if it
// were available at time 0.
type ClusterTimes struct {
	g          *dag.Graph
	order      []dag.NodeID
	speeds     []float64 // the prefix for numProcs processors, nil for uniform
	start, fin []int64   // per mapped node, valid after a complete pass
	last       []int64   // per processor: the finish of its latest node
}

// NewClusterTimes returns the kernel for g on numProcs processors with
// the optional speed vector, of which the first numProcs factors are
// used; the caller has judged them (see sched.AcquireOn).
func NewClusterTimes(g *dag.Graph, numProcs int, speeds []float64) *ClusterTimes {
	if speeds != nil {
		speeds = speeds[:numProcs]
	}
	n := g.NumNodes()
	return &ClusterTimes{
		g: g, order: PriorityOrder(g, dag.BLevels(g)), speeds: speeds,
		start: make([]int64, n), fin: make([]int64, n), last: make([]int64, numProcs),
	}
}

// Order returns the kernel's placement order, the b-level order of its
// graph. The slice is shared; callers must not modify it.
func (k *ClusterTimes) Order() []dag.NodeID { return k.order }

// Run places the mapped nodes of the order under assign:
//
//	start(v) = max(last[assign[v]], max over mapped parents u of fin[u] + w(u,v)·[assign[u] ≠ assign[v]])
//
// and returns the schedule length. The length never shrinks during a
// pass, so Run stops at the first finish above bound and reports false;
// a complete pass reports true.
func (k *ClusterTimes) Run(assign []int, bound int64) (int64, bool) {
	clear(k.last)
	var length int64
	for _, v := range k.order {
		c := assign[v]
		if c < 0 {
			continue
		}
		st := k.last[c]
		for _, pr := range k.g.Preds(v) {
			a := assign[pr.To]
			if a < 0 {
				continue
			}
			t := k.fin[pr.To]
			if a != c {
				t += pr.Weight
			}
			st = max(st, t)
		}
		f := st + sched.ScaledTime(k.g.Weight(v), k.speeds, c)
		if f > bound {
			return f, false
		}
		k.start[v], k.fin[v], k.last[c] = st, f, f
		length = max(length, f)
	}
	return length, true
}

// Schedule converts a complete assign into a concrete schedule: one
// complete pass, then every node placed at its computed start.
func (k *ClusterTimes) Schedule(assign []int) *sched.Schedule {
	k.Run(assign, math.MaxInt64)
	s, err := sched.AcquireOn(k.g, len(k.last), k.speeds)
	if err != nil {
		panic(err)
	}
	for _, v := range k.order {
		s.MustPlace(v, assign[v], k.start[v])
	}
	return s
}
