package algo

import (
	"math/bits"
	"sort"

	"repro/internal/dag"
)

// ALAPListOrder returns the nodes sorted by ascending lexicographic
// order of their ALAP lists: each node's own ALAP time followed by the
// ALAP times of all its descendants, sorted ascending. This is the
// static scheduling order of MCP (Wu & Gajski 1990) — critical-path
// nodes have the smallest ALAP times and come first — used by MCP
// and the other alap combos of the parameterized component schedulers.
func ALAPListOrder(g *dag.Graph) []dag.NodeID {
	n := g.NumNodes()
	lv := dag.ComputeLevels(g)
	lists := make([][]int64, n)
	// Descendant sets via reverse-topological accumulation of bitsets.
	words := (n + 63) / 64
	desc := make([][]uint64, n)
	topo := g.TopoOrder()
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		row := make([]uint64, words)
		for _, a := range g.Succs(v) {
			row[a.To/64] |= 1 << (uint(a.To) % 64)
			for w, b := range desc[a.To] {
				row[w] |= b
			}
		}
		desc[v] = row
	}
	for v := 0; v < n; v++ {
		list := []int64{lv.ALAP[v]}
		for w := 0; w < words; w++ {
			word := desc[v][w]
			for word != 0 {
				d := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				list = append(list, lv.ALAP[d])
			}
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		lists[v] = list
	}
	// Rank nodes by lexicographic list order, then emit them with a
	// priority-driven topological pass. For positive node weights a
	// parent's list always precedes its child's, so the pass reproduces
	// plain lexicographic order; with zero-weight nodes it still yields a
	// valid scheduling order.
	prio := make([]int64, n)
	byList := make([]dag.NodeID, n)
	for v := range byList {
		byList[v] = dag.NodeID(v)
	}
	sort.SliceStable(byList, func(i, j int) bool {
		a, b := lists[byList[i]], lists[byList[j]]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return byList[i] < byList[j]
	})
	for i, v := range byList {
		prio[v] = -int64(i) // smallest rank pops first; ranks are unique
	}
	return PriorityOrder(g, prio)
}
