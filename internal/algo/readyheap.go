package algo

import (
	"sync"

	"repro/internal/dag"
)

// ReadyHeap is the ready set for list schedulers whose priorities are
// fixed by the time a node becomes ready: static regimes such as HLFET
// (priority computed before the loop starts) and DSC (t-level plus
// b-level, final once every parent is placed). It pops the
// maximum-priority ready node in O(log w) instead of the O(w) linear
// scan a ReadySet plus MaxBy costs per step, where w is the ready width.
// The order is the exact total order MaxBy uses — priority descending,
// ties toward the smaller node ID — so replacing a MaxBy scan with a
// ReadyHeap changes the pop sequence of no graph: on wide instances
// (many thousands of simultaneously ready nodes) the scan dominates the
// whole scheduler and the heap turns the list phase from O(v·w) into
// O((v+e)·log w).
type ReadyHeap struct {
	prio      []int64 // node -> fixed priority, aliased from the caller
	remaining []int32 // unscheduled parent count per node
	heap      []dag.NodeID
}

// Reset reinitializes the heap to the entry nodes of g under prio,
// reusing the backing arrays when they are large enough.
func (r *ReadyHeap) Reset(g *dag.Graph, prio []int64) {
	n := g.NumNodes()
	r.prio = prio
	if cap(r.remaining) >= n {
		r.remaining = r.remaining[:n]
	} else {
		r.remaining = make([]int32, n)
	}
	r.heap = r.heap[:0]
	for v := 0; v < n; v++ {
		r.remaining[v] = int32(g.InDegree(dag.NodeID(v)))
		if r.remaining[v] == 0 {
			r.push(dag.NodeID(v))
		}
	}
}

// readyHeapPool recycles ReadyHeaps between AcquireReadyHeap and
// Release so steady-state runs do not reallocate the arrays.
var readyHeapPool = sync.Pool{New: func() any { return new(ReadyHeap) }}

// AcquireReadyHeap returns a ready heap for g from the pool.
func AcquireReadyHeap(g *dag.Graph, prio []int64) *ReadyHeap {
	r := readyHeapPool.Get().(*ReadyHeap)
	r.Reset(g, prio)
	return r
}

// Release returns the heap to the pool and drops its priority alias.
// The caller must not use r afterwards.
func (r *ReadyHeap) Release() {
	r.prio = nil
	readyHeapPool.Put(r)
}

// Empty reports whether no node is ready.
func (r *ReadyHeap) Empty() bool { return len(r.heap) == 0 }

// Len returns the number of ready nodes.
func (r *ReadyHeap) Len() int { return len(r.heap) }

// before reports whether a pops before b: higher priority first, ties
// toward the smaller node ID — MaxBy's total order.
func (r *ReadyHeap) before(a, b dag.NodeID) bool {
	pa, pb := r.prio[a], r.prio[b]
	return pa > pb || (pa == pb && a < b)
}

// Ready returns the current ready nodes in heap order. The slice is
// shared with the heap; callers must not modify it and must not hold it
// across PopMax, Remove or MarkScheduled calls. Callers that pick from
// it must select by a total order, never by index.
func (r *ReadyHeap) Ready() []dag.NodeID { return r.heap }

// push adds n and restores the heap invariant bottom-up.
func (r *ReadyHeap) push(n dag.NodeID) {
	r.heap = append(r.heap, n)
	r.up(len(r.heap) - 1)
}

// up moves the entry at index i toward the root until its parent pops
// before it.
func (r *ReadyHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !r.before(r.heap[i], r.heap[parent]) {
			break
		}
		r.heap[i], r.heap[parent] = r.heap[parent], r.heap[i]
		i = parent
	}
}

// down moves the entry at index i toward the leaves until both children
// pop after it, reporting whether it moved.
func (r *ReadyHeap) down(i int) bool {
	start, n := i, len(r.heap)
	for {
		l, rt := 2*i+1, 2*i+2
		best := i
		if l < n && r.before(r.heap[l], r.heap[best]) {
			best = l
		}
		if rt < n && r.before(r.heap[rt], r.heap[best]) {
			best = rt
		}
		if best == i {
			return i != start
		}
		r.heap[i], r.heap[best] = r.heap[best], r.heap[i]
		i = best
	}
}

// removeAt deletes and returns the entry at index i, moving the last
// entry into its place and sifting it whichever way restores the order.
func (r *ReadyHeap) removeAt(i int) dag.NodeID {
	n := r.heap[i]
	last := len(r.heap) - 1
	r.heap[i] = r.heap[last]
	r.heap = r.heap[:last]
	if i < last && !r.down(i) {
		r.up(i)
	}
	return n
}

// PopMax removes and returns the ready node that MaxBy would select:
// maximum priority, ties broken toward the smaller ID. It panics on an
// empty heap, which would indicate a scheduler bug.
func (r *ReadyHeap) PopMax() dag.NodeID { return r.removeAt(0) }

// Remove takes the ready node n out of the heap, for schedulers that
// pick by a rule of their own from a scan of Ready(). Locating n costs
// O(w), no more than that scan; it panics if n is not ready, which would
// indicate a scheduler bug.
func (r *ReadyHeap) Remove(n dag.NodeID) {
	for i, m := range r.heap {
		if m == n {
			r.removeAt(i)
			return
		}
	}
	panic("algo: Remove of non-ready node")
}

// MarkScheduled records that n (previously popped) has been scheduled
// and pushes any children that became ready.
func (r *ReadyHeap) MarkScheduled(g *dag.Graph, n dag.NodeID) {
	for _, a := range g.Succs(n) {
		r.remaining[a.To]--
		if r.remaining[a.To] == 0 {
			r.push(a.To)
		}
	}
}

// PriorityOrder returns the nodes of g in the order a ReadyHeap under
// prio pops them when every popped node is scheduled at once: a
// priority-driven topological (Kahn) pass, highest priority first among
// the ready nodes, ties toward the smaller ID. A list scheduler whose
// priority is static and whose readiness depends only on the nodes it
// has already taken pops exactly this sequence, so it can walk the
// precomputed order instead of keeping a ready set.
func PriorityOrder(g *dag.Graph, prio []int64) []dag.NodeID {
	ready := AcquireReadyHeap(g, prio)
	defer ready.Release()
	order := make([]dag.NodeID, 0, g.NumNodes())
	for !ready.Empty() {
		n := ready.PopMax()
		ready.MarkScheduled(g, n)
		order = append(order, n)
	}
	return order
}
