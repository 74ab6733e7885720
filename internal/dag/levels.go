package dag

// Levels bundles the standard scheduling attributes of a graph
// (paper section 3):
//
//   - T: the t-level (top level) of each node — the length of the longest
//     path from an entry node to the node, excluding the node's own
//     weight; node and edge weights both count toward path length.
//   - B: the b-level (bottom level) — the length of the longest path from
//     the node to an exit node, including the node's own weight.
//   - Static: the static level — the b-level computed with all
//     communication costs ignored (used by HLFET, ISH, ETF, DLS, MH).
//   - ALAP: the as-late-as-possible start time, CPLength − B.
//
// CPLength is the critical-path length: the maximum T+B over all nodes.
type Levels struct {
	T        []int64
	B        []int64
	Static   []int64
	ALAP     []int64
	CPLength int64
}

// ComputeLevels computes every level attribute in two passes over the
// topological order.
func ComputeLevels(g *Graph) *Levels {
	lv := &Levels{}
	lv.Compute(g)
	return lv
}

// Compute fills lv with the level attributes of g, reusing the existing
// backing arrays when they are large enough. This is the allocation-free
// path for schedulers that recompute levels per run on pooled scratch.
func (lv *Levels) Compute(g *Graph) {
	n := g.NumNodes()
	lv.T = resizeInt64(lv.T, n)
	lv.B = resizeInt64(lv.B, n)
	lv.Static = resizeInt64(lv.Static, n)
	lv.ALAP = resizeInt64(lv.ALAP, n)
	lv.CPLength = 0
	topo := g.topoOrder()
	for _, v := range topo {
		var t int64
		for _, p := range g.Preds(v) {
			if c := lv.T[p.To] + g.Weight(p.To) + p.Weight; c > t {
				t = c
			}
		}
		lv.T[v] = t
	}
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		var b, s int64
		for _, a := range g.Succs(v) {
			if c := a.Weight + lv.B[a.To]; c > b {
				b = c
			}
			if lv.Static[a.To] > s {
				s = lv.Static[a.To]
			}
		}
		lv.B[v] = b + g.Weight(v)
		lv.Static[v] = s + g.Weight(v)
	}
	for v := 0; v < n; v++ {
		if c := lv.T[v] + lv.B[v]; c > lv.CPLength {
			lv.CPLength = c
		}
	}
	for v := 0; v < n; v++ {
		lv.ALAP[v] = lv.CPLength - lv.B[v]
	}
}

// resizeInt64 returns a slice of length n, reusing s's backing array
// when it has the capacity.
func resizeInt64(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}

// BLevels returns only the b-levels of the graph.
func BLevels(g *Graph) []int64 { return ComputeLevels(g).B }

// StaticLevels returns only the static (communication-free) b-levels.
func StaticLevels(g *Graph) []int64 { return ComputeLevels(g).Static }

// CriticalPathLength returns the length of the critical path: the longest
// entry-to-exit path counting node and edge weights.
func CriticalPathLength(g *Graph) int64 { return ComputeLevels(g).CPLength }

// CriticalPath returns one critical path of the graph as a node sequence
// from an entry node to an exit node. Among equal-length choices the
// smallest node ID is taken, so the result is deterministic. The empty
// graph yields nil.
func CriticalPath(g *Graph) []NodeID {
	if g.NumNodes() == 0 {
		return nil
	}
	lv := ComputeLevels(g)
	return criticalPathFrom(g, lv)
}

func criticalPathFrom(g *Graph, lv *Levels) []NodeID {
	cur := None
	for _, e := range g.Entries() {
		if lv.B[e] == lv.CPLength {
			cur = e
			break
		}
	}
	if cur == None {
		return nil
	}
	path := []NodeID{cur}
	for {
		next := None
		for _, a := range g.Succs(cur) {
			// The successor continues the critical path when the edge is
			// tight on both sides of the longest-path recurrence.
			if lv.T[cur]+g.Weight(cur)+a.Weight == lv.T[a.To] &&
				lv.T[a.To]+lv.B[a.To] == lv.CPLength {
				if next == None || a.To < next {
					next = a.To
				}
			}
		}
		if next == None {
			return path
		}
		path = append(path, next)
		cur = next
	}
}

// CPComputationSum returns the sum of the computation costs of the nodes
// on one critical path. This is the denominator of the normalized
// schedule length (NSL) measure in paper section 6, and a lower bound on
// any schedule length.
func CPComputationSum(g *Graph) int64 {
	var sum int64
	for _, n := range CriticalPath(g) {
		sum += g.Weight(n)
	}
	return sum
}
