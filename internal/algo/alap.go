package algo

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/dag"
)

// ALAPListOrder returns the nodes sorted by ascending lexicographic
// order of their ALAP lists: each node's own ALAP time followed by the
// ALAP times of all its descendants, sorted ascending. This is the
// static scheduling order of MCP (Wu & Gajski 1990) — critical-path
// nodes have the smallest ALAP times and come first — used by MCP
// and the other alap combos of the parameterized component schedulers.
//
// No list is materialized. ALAP never decreases along an edge, so a
// node's list is its own ALAP followed by its descendants read in
// (ALAP, ID) rank order. Each node's descendant set is one bitset row
// indexed by rank, and only nodes with equal own ALAP need their rows
// compared (see alapLists.compare).
func ALAPListOrder(g *dag.Graph) []dag.NodeID {
	n := g.NumNodes()
	alap := dag.ComputeLevels(g).ALAP
	byRank := make([]dag.NodeID, n)
	for v := range byRank {
		byRank[v] = dag.NodeID(v)
	}
	slices.SortFunc(byRank, func(a, b dag.NodeID) int {
		return cmp.Or(cmp.Compare(alap[a], alap[b]), cmp.Compare(a, b))
	})
	l := alapLists{
		words:   (n + 63) / 64,
		rank:    make([]int32, n),
		groupLo: make([]int32, n),
		groupHi: make([]int32, n),
		last:    make([]int32, n),
	}
	for r, v := range byRank {
		l.rank[v] = int32(r)
	}
	// Tie groups: maximal rank ranges of equal ALAP.
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && alap[byRank[hi]] == alap[byRank[lo]] {
			hi++
		}
		for r := lo; r < hi; r++ {
			l.groupLo[r], l.groupHi[r] = int32(lo), int32(hi)
		}
		lo = hi
	}
	// Descendant rows via reverse-topological accumulation. Every bit of
	// a child's row sits at or above the child's group start, so the OR
	// starts there; a child already marked is a descendant of a child
	// already merged, whose row contains the marked child's row.
	l.rows = make([]uint64, n*l.words)
	topo := g.TopoOrder()
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		row := l.row(v)
		l.last[v] = -1
		for _, a := range g.Succs(v) {
			r := l.rank[a.To]
			l.last[v] = max(l.last[v], r, l.last[a.To])
			if row[r/64]&(1<<(uint(r)%64)) != 0 {
				continue
			}
			row[r/64] |= 1 << (uint(r) % 64)
			from := int(l.groupLo[r]) / 64
			for w, b := range l.row(a.To)[from:] {
				row[from+w] |= b
			}
		}
	}
	// Only tie groups need re-sorting; the rank order already separates
	// different own ALAP times.
	for lo := 0; lo < n; {
		hi := int(l.groupHi[lo])
		if hi-lo > 1 {
			slices.SortFunc(byRank[lo:hi], l.compare)
		}
		lo = hi
	}
	// Emit the nodes with a priority-driven topological pass. For
	// positive node weights a parent's list always precedes its child's,
	// so the pass reproduces plain lexicographic order; with zero-weight
	// nodes it still yields a valid scheduling order.
	prio := make([]int64, n)
	for i, v := range byRank {
		prio[v] = -int64(i) // smallest rank pops first; ranks are unique
	}
	return PriorityOrder(g, prio)
}

// alapLists holds every node's descendant set as a bitset row over the
// (ALAP, ID) rank order, with the rank range of each rank's ALAP group.
type alapLists struct {
	words            int
	rows             []uint64 // V rows of words each, indexed by node ID
	rank             []int32  // node ID -> rank
	groupLo, groupHi []int32  // rank -> [lo, hi) of its equal-ALAP group
	last             []int32  // node ID -> highest set rank in its row, or -1
}

func (l *alapLists) row(v dag.NodeID) []uint64 {
	return l.rows[int(v)*l.words : (int(v)+1)*l.words]
}

// compare orders two nodes of one tie group by their descendant ALAP
// lists, then by ID. Groups before the first differing rank hold the
// same bits in both rows. Within an ALAP group only the bit count
// matters: equal counts mean equal list stretches, so the scan resumes
// past the group. Otherwise the side u with more bits has one more copy
// of this ALAP where the other list holds either a larger ALAP (u sorts
// first) or its end (the other list is a prefix of u's and sorts first).
func (l *alapLists) compare(a, b dag.NodeID) int {
	ra, rb := l.row(a), l.row(b)
	for from := int(l.groupLo[l.rank[a]]); ; {
		r := firstDiff(ra, rb, from)
		if r < 0 {
			return cmp.Compare(a, b)
		}
		lo, hi := int(l.groupLo[r]), int(l.groupHi[r])
		ca, cb := popcountRange(ra, lo, hi), popcountRange(rb, lo, hi)
		if ca == cb {
			from = hi
			continue
		}
		other, sign := b, -1 // a has more copies: a first unless b ends here
		if cb > ca {
			other, sign = a, 1
		}
		if int(l.last[other]) < hi {
			return -sign
		}
		return sign
	}
}

// firstDiff returns the lowest bit index ≥ from where x and y differ,
// or -1 if none does.
func firstDiff(x, y []uint64, from int) int {
	w := from / 64
	if w >= len(x) {
		return -1
	}
	if d := (x[w] ^ y[w]) >> (uint(from) % 64); d != 0 {
		return from + bits.TrailingZeros64(d)
	}
	for w++; w < len(x); w++ {
		if d := x[w] ^ y[w]; d != 0 {
			return w*64 + bits.TrailingZeros64(d)
		}
	}
	return -1
}

// popcountRange counts the set bits of x in [lo, hi), hi > lo.
func popcountRange(x []uint64, lo, hi int) int {
	wl, wh := lo/64, (hi-1)/64
	loMask := ^uint64(0) << (uint(lo) % 64)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)%64)
	if wl == wh {
		return bits.OnesCount64(x[wl] & loMask & hiMask)
	}
	c := bits.OnesCount64(x[wl]&loMask) + bits.OnesCount64(x[wh]&hiMask)
	for _, w := range x[wl+1 : wh] {
		c += bits.OnesCount64(w)
	}
	return c
}
