package algo

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
)

// alapListOrderOracle is the direct ALAPListOrder: it materializes
// every node's list — its own ALAP time followed by the sorted ALAP
// times of all its descendants — and sorts the nodes by those lists.
// Quadratic in time and memory, it survives only as the reference the
// bitset comparison is pinned to.
func alapListOrderOracle(g *dag.Graph) []dag.NodeID {
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

// assertOracleOrder requires ALAPListOrder to equal the oracle on g.
func assertOracleOrder(t *testing.T, name string, g *dag.Graph) {
	t.Helper()
	if got, want := ALAPListOrder(g), alapListOrderOracle(g); !slices.Equal(got, want) {
		t.Fatalf("%s: ALAPListOrder = %v, oracle %v", name, got, want)
	}
}

// decodeDAG builds a DAG of at most 64 nodes from arbitrary bytes. The
// first byte picks the node count, the next ones the node weights (0, 1
// or 2; missing bytes give 0), and every following triple (i, j, c) an
// edge between nodes i and j mod the count, oriented from the smaller
// index, with cost c mod 3. Self-loops and repeated pairs are dropped.
// It returns nil for empty input.
func decodeDAG(data []byte) *dag.Graph {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0])%64 + 1
	data = data[1:]
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		var w int64
		if i < len(data) {
			w = int64(data[i] % 3)
		}
		b.AddNode(w)
	}
	data = data[min(n, len(data)):]
	seen := map[[2]int]bool{}
	for ; len(data) >= 3; data = data[3:] {
		i, j := int(data[0])%n, int(data[1])%n
		if i > j {
			i, j = j, i
		}
		if i == j || seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		b.AddEdge(dag.NodeID(i), dag.NodeID(j), int64(data[2]%3))
	}
	return b.MustBuild()
}

// forkJoinChain builds a source fanning out to equal siblings that join
// into one node, which leads into a chain: every sibling has the same
// list, so each comparison scans the whole shared prefix.
func forkJoinChain(siblings, chain int) *dag.Graph {
	b := dag.NewBuilder()
	src, join := b.AddNode(1), b.AddNode(1)
	for i := 0; i < siblings; i++ {
		s := b.AddNode(1)
		b.AddEdge(src, s, 1)
		b.AddEdge(s, join, 1)
	}
	for prev, i := join, 0; i < chain; i++ {
		c := b.AddNode(1)
		b.AddEdge(prev, c, 1)
		prev = c
	}
	return b.MustBuild()
}

func TestALAPListOrderMatchesOracle(t *testing.T) {
	t.Run("families", func(t *testing.T) {
		for _, fam := range gen.Generators() {
			sets := []gen.Params{nil} // registry defaults
			switch {
			case slices.ContainsFunc(fam.Params, func(p gen.ParamSpec) bool { return p.Name == "v" }):
				sets = []gen.Params{{"v": "20"}, {"v": "60"}, {"v": "150"}}
			case fam.Name == "psg": // no default graph: every named one
				sets = nil
				for _, ng := range gen.PeerSet() {
					sets = append(sets, gen.Params{"name": ng.Name})
				}
			}
			for seed := int64(1); seed <= 30; seed++ {
				for _, p := range sets {
					g, err := gen.Generate(fam.Name, seed, p)
					if err != nil {
						t.Fatalf("%s seed %d %v: %v", fam.Name, seed, p, err)
					}
					assertOracleOrder(t, fmt.Sprintf("%s seed %d %v", fam.Name, seed, p), g)
				}
			}
		}
	})
	t.Run("random-zero-weights", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 2000; i++ {
			n := 1 + rng.Intn(64)
			data := make([]byte, 1+n+3*rng.Intn(4*n+1))
			rng.Read(data)
			data[0] = byte(n - 1)
			assertOracleOrder(t, fmt.Sprintf("random DAG %d (%x)", i, data), decodeDAG(data))
		}
	})
	t.Run("kernels", func(t *testing.T) {
		kernels := []struct {
			name  string
			build func() (*dag.Graph, error)
		}{
			{"cholesky-40", func() (*dag.Graph, error) { return gen.Cholesky(40, 1) }},
			{"lu-10", func() (*dag.Graph, error) { return gen.LU(10, 1) }},
			{"fft-256", func() (*dag.Graph, error) { return gen.FFT(256, 1) }},
		}
		for _, k := range kernels {
			g, err := k.build()
			if err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
			assertOracleOrder(t, k.name, g)
		}
	})
	t.Run("fork-join-chain", func(t *testing.T) {
		assertOracleOrder(t, "fork-join 500 into chain 200", forkJoinChain(500, 200))
	})
}

func FuzzALAPListOrder(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 0, 1, 2, 0})
	f.Add([]byte{5, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 2, 0, 1, 3, 1, 2, 4, 2})
	f.Add([]byte{63, 0, 1, 2, 0, 1, 2, 0, 1, 2, 3, 9, 1, 4, 8, 0, 7, 60, 2, 12, 40, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if g := decodeDAG(data); g != nil {
			assertOracleOrder(t, fmt.Sprintf("fuzz DAG %x", data), g)
		}
	})
}
