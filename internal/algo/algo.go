// Package algo provides the pieces shared by the scheduling algorithm
// implementations in its subpackages: the ready-node bookkeeping of list
// scheduling. A node's priority is either fixed by the time it becomes
// ready — then ReadyHeap pops the highest one in O(log w), and
// PriorityOrder precomputes the whole pop sequence when readiness
// depends only on the nodes taken — or re-scored every step, and then
// the scheduler scans the unordered ReadySet. Both selection rules share
// one deterministic total order, spelled out by MaxBy: priority
// descending, ties toward the smaller node ID. ClusterTimes walks the
// b-level PriorityOrder to time cluster assignments without a schedule.
//
// The three subpackages mirror the taxonomy of Kwok & Ahmad (IPPS 1998,
// section 4): BNP algorithms schedule onto a bounded clique of
// processors, UNC algorithms cluster onto an unbounded set, and APN
// algorithms schedule both tasks and messages onto an arbitrary network.
package algo

import (
	"sync"

	"repro/internal/dag"
)

// ReadySet tracks which unscheduled nodes have all parents scheduled.
// List schedulers pop nodes from it in priority order and feed newly
// released children back in.
type ReadySet struct {
	remaining []int32 // unscheduled parent count per node
	ready     []dag.NodeID
	pos       []int32 // node -> index in ready, -1 when not ready
}

// NewReadySet returns a ready set holding the entry nodes of g.
func NewReadySet(g *dag.Graph) *ReadySet {
	r := &ReadySet{}
	r.Reset(g)
	return r
}

// Reset reinitializes the set to the entry nodes of g, reusing the
// backing arrays when they are large enough.
func (r *ReadySet) Reset(g *dag.Graph) {
	n := g.NumNodes()
	if cap(r.remaining) >= n {
		r.remaining = r.remaining[:n]
		r.pos = r.pos[:n]
	} else {
		r.remaining = make([]int32, n)
		r.pos = make([]int32, n)
	}
	r.ready = r.ready[:0]
	for v := 0; v < n; v++ {
		r.remaining[v] = int32(g.InDegree(dag.NodeID(v)))
		r.pos[v] = -1
		if r.remaining[v] == 0 {
			r.pos[v] = int32(len(r.ready))
			r.ready = append(r.ready, dag.NodeID(v))
		}
	}
}

// readyPool recycles ReadySets between AcquireReadySet and Release so
// steady-state scheduling runs do not reallocate the bookkeeping arrays.
var readyPool = sync.Pool{New: func() any { return new(ReadySet) }}

// AcquireReadySet returns a ready set for g from the pool.
func AcquireReadySet(g *dag.Graph) *ReadySet {
	r := readyPool.Get().(*ReadySet)
	r.Reset(g)
	return r
}

// Release returns the set to the pool. The caller must not use r
// afterwards.
func (r *ReadySet) Release() { readyPool.Put(r) }

// Ready returns the current ready nodes. The slice is shared with the
// set; callers must not modify it and must not hold it across Pop or
// MarkScheduled calls. The order is unspecified: Pop swap-removes, so
// callers must select by a total order (such as MaxBy), never by index.
func (r *ReadySet) Ready() []dag.NodeID { return r.ready }

// Empty reports whether no node is ready.
func (r *ReadySet) Empty() bool { return len(r.ready) == 0 }

// Pop removes n from the ready list in O(1) by swapping the last entry
// into its tracked position; it panics if n is not ready, which would
// indicate a scheduler bug.
func (r *ReadySet) Pop(n dag.NodeID) {
	i := r.pos[n]
	if i < 0 {
		panic("algo: Pop of non-ready node")
	}
	last := len(r.ready) - 1
	moved := r.ready[last]
	r.ready[i] = moved
	r.pos[moved] = i
	r.ready = r.ready[:last]
	r.pos[n] = -1
}

// MarkScheduled records that n (previously popped) has been scheduled
// and inserts any children that became ready. The newly ready nodes are
// returned as a sub-slice of the internal ready list, valid until the
// next Pop or MarkScheduled; incremental schedulers evaluate exactly
// these instead of rescanning the whole ready set.
func (r *ReadySet) MarkScheduled(g *dag.Graph, n dag.NodeID) []dag.NodeID {
	first := len(r.ready)
	for _, a := range g.Succs(n) {
		r.remaining[a.To]--
		if r.remaining[a.To] == 0 {
			r.pos[a.To] = int32(len(r.ready))
			r.ready = append(r.ready, a.To)
		}
	}
	return r.ready[first:]
}

// MaxBy returns the element of ready that maximizes priority, breaking
// ties toward the smaller node ID. It panics on an empty slice. It is
// the reference form of the order ReadyHeap pops in: no scheduler calls
// it, and tests use it as the oracle for the heap.
func MaxBy(ready []dag.NodeID, priority func(dag.NodeID) int64) dag.NodeID {
	best := ready[0]
	bestP := priority(best)
	for _, n := range ready[1:] {
		p := priority(n)
		if p > bestP || (p == bestP && n < best) {
			best, bestP = n, p
		}
	}
	return best
}
