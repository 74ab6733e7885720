package algo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/sched"
)

// oracleAssignment is the definitional form of the cluster-timing
// kernel: the mapped nodes (assign ≥ 0) form the induced subgraph, and
// each is queried and placed on a clique schedule of that subgraph in
// the b-level order PriorityOrder(g, dag.BLevels(g)), at its earliest
// non-insertion start on its processor. Edges from unmapped nodes are
// absent from the subgraph, so their data delays nothing. It returns
// the schedule and the subgraph ID of every mapped node (-1 for the
// others); a complete assignment schedules g itself.
func oracleAssignment(g *dag.Graph, assign []int, numProcs int, speeds []float64) (*sched.Schedule, []dag.NodeID) {
	sub, id := g, make([]dag.NodeID, g.NumNodes())
	complete := true
	b := dag.NewBuilder()
	for v := range id {
		id[v] = dag.None
		if assign[v] >= 0 {
			id[v] = b.AddNode(g.Weight(dag.NodeID(v)))
		} else {
			complete = false
		}
	}
	if !complete {
		for v := range id {
			for _, a := range g.Succs(dag.NodeID(v)) {
				if id[v] != dag.None && id[a.To] != dag.None {
					b.AddEdge(id[v], id[a.To], a.Weight)
				}
			}
		}
		sub = b.MustBuild()
	}
	if speeds != nil {
		speeds = speeds[:numProcs]
	}
	s, err := sched.AcquireOn(sub, numProcs, speeds)
	if err != nil {
		panic(err)
	}
	for _, v := range PriorityOrder(g, dag.BLevels(g)) {
		if id[v] == dag.None {
			continue
		}
		est, ok := s.ESTOn(id[v], assign[v], false)
		if !ok {
			panic("algo: b-level order is not topological")
		}
		s.MustPlace(id[v], assign[v], est)
	}
	return s, id
}

// kernelCase is a graph, a possibly partial cluster assignment on
// numProcs processors and an optional speed vector covering them.
type kernelCase struct {
	g        *dag.Graph
	assign   []int
	numProcs int
	speeds   []float64
}

// randomKernelCase draws a DAG of 1 to 30 nodes whose task weights and
// edge costs include zero, a random assignment (a third of the time
// with some nodes unmapped) and, half the time, random speeds.
func randomKernelCase(rng *rand.Rand) kernelCase {
	n := 1 + rng.Intn(30)
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		w := rng.Int63n(25)
		if rng.Intn(5) == 0 {
			w = 0
		}
		b.AddNode(w)
	}
	density := 2 + rng.Intn(5)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(density) == 0 {
				b.AddEdge(dag.NodeID(i), dag.NodeID(j), rng.Int63n(40))
			}
		}
	}
	c := kernelCase{g: b.MustBuild(), numProcs: 1 + rng.Intn(n)}
	partial := rng.Intn(3) == 0
	c.assign = make([]int, n)
	for v := range c.assign {
		c.assign[v] = rng.Intn(c.numProcs)
		if partial && rng.Intn(3) == 0 {
			c.assign[v] = -1
		}
	}
	if rng.Intn(2) == 0 {
		c.speeds = make([]float64, n)
		for p := range c.speeds {
			c.speeds[p] = 0.5 + 2.5*rng.Float64()
		}
	}
	return c
}

// assertKernelMatchesOracle checks ClusterTimes against the
// whole-schedule oracle: equal length and starts of the mapped nodes,
// the bound honoured exactly at the length, and, for a complete
// assignment, the built schedule equal to the oracle's.
func assertKernelMatchesOracle(t *testing.T, label string, c kernelCase) {
	t.Helper()
	want, id := oracleAssignment(c.g, c.assign, c.numProcs, c.speeds)
	defer want.Release()
	k := NewClusterTimes(c.g, c.numProcs, c.speeds)
	l, ok := k.Run(c.assign, math.MaxInt64)
	if !ok || l != want.Length() {
		t.Fatalf("%s: kernel length %d (complete %v), schedule length %d", label, l, ok, want.Length())
	}
	complete := true
	for v := 0; v < c.g.NumNodes(); v++ {
		if id[v] == dag.None {
			complete = false
			continue
		}
		if k.start[v] != want.StartOf(id[v]) || k.fin[v] != want.FinishOf(id[v]) {
			t.Fatalf("%s: node %d at [%d,%d), schedule says [%d,%d)", label, v,
				k.start[v], k.fin[v], want.StartOf(id[v]), want.FinishOf(id[v]))
		}
	}
	if _, ok := k.Run(c.assign, l); !ok {
		t.Fatalf("%s: bound %d equal to the length stopped the pass", label, l)
	}
	if l > 0 {
		if _, ok := k.Run(c.assign, l-1); ok {
			t.Fatalf("%s: bound %d below the length %d completed the pass", label, l-1, l)
		}
	}
	if !complete {
		return
	}
	got := k.Schedule(c.assign)
	defer got.Release()
	if got.String() != want.String() {
		t.Fatalf("%s: built schedule\n%v\noracle\n%v", label, got, want)
	}
}

// TestClusterTimesMatchesSchedule pins the kernel to the oracle on the
// chain 2 → 1 → 0 with weights 10, 0 and 3 and zero edge costs on one
// processor, then on random cases. In the chain, nodes 0 and 1 tie at
// b-level 3, so sorting by (b-level desc, ID asc) would run node 0
// before its parent; the kernel's order is topological.
func TestClusterTimesMatchesSchedule(t *testing.T) {
	b := dag.NewBuilder()
	for _, w := range []int64{3, 0, 10} {
		b.AddNode(w)
	}
	b.AddEdge(2, 1, 0)
	b.AddEdge(1, 0, 0)
	chain := kernelCase{g: b.MustBuild(), assign: []int{0, 0, 0}, numProcs: 1}
	assertKernelMatchesOracle(t, "zero-weight chain", chain)
	k := NewClusterTimes(chain.g, 1, nil)
	if k.Run(chain.assign, math.MaxInt64); k.start[0] < k.fin[1] {
		t.Fatalf("chain: node 0 starts at %d before node 1 finishes at %d", k.start[0], k.fin[1])
	}

	rng := rand.New(rand.NewSource(2301))
	for i := 0; i < 400; i++ {
		assertKernelMatchesOracle(t, fmt.Sprintf("case %d", i), randomKernelCase(rng))
	}
}

// decodeKernelCase builds a kernel case from arbitrary bytes: the first
// byte picks the node count (1 to 24), the second the processor count,
// the third whether speeds are used (bit 0, and seeds them) and whether
// the assignment may be partial (bit 1); then one byte per node gives
// its weight (0 to 7) and its processor, or leaves it unmapped when
// partial and its top bit is set, and every following triple (i, j, c)
// an edge from the smaller index to the larger with cost c mod 16.
// Self-loops and repeated pairs are dropped. It reports false for
// inputs under three bytes.
func decodeKernelCase(data []byte) (kernelCase, bool) {
	if len(data) < 3 {
		return kernelCase{}, false
	}
	n := int(data[0])%24 + 1
	c := kernelCase{numProcs: int(data[1])%n + 1, assign: make([]int, n)}
	if data[2]%2 == 1 {
		rng := rand.New(rand.NewSource(int64(data[2])))
		c.speeds = make([]float64, n)
		for p := range c.speeds {
			c.speeds[p] = 0.5 + 2.5*rng.Float64()
		}
	}
	partial := data[2]&2 != 0
	data = data[3:]
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		var x byte
		if i < len(data) {
			x = data[i]
		}
		b.AddNode(int64(x % 8))
		c.assign[i] = int(x/8) % c.numProcs
		if partial && x >= 128 {
			c.assign[i] = -1
		}
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
		b.AddEdge(dag.NodeID(i), dag.NodeID(j), int64(data[2]%16))
	}
	c.g = b.MustBuild()
	return c, true
}

func FuzzClusterTimes(f *testing.F) {
	f.Add([]byte{2, 1, 0, 9, 17, 0, 1, 5})
	f.Add([]byte{7, 3, 1, 2, 8, 19, 0, 33, 12, 4, 0, 1, 9, 0, 2, 0, 1, 3, 4, 15, 2, 5, 7, 4, 6, 2, 3, 6, 1})
	f.Add([]byte{23, 9, 3, 1, 2, 3, 40, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2,
		0, 5, 3, 1, 7, 0, 2, 9, 8, 5, 12, 4, 3, 20, 11, 6, 22, 1, 10, 15, 6, 14, 18, 9})
	f.Add([]byte{9, 2, 2, 130, 8, 0, 200, 17, 3, 128, 16, 5, 0, 1, 0, 1, 2, 7, 2, 3, 0, 3, 5, 4, 4, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := decodeKernelCase(data); ok {
			assertKernelMatchesOracle(t, fmt.Sprintf("fuzz case %x", data), c)
		}
	})
}
