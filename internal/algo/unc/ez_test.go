package unc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sched"
)

// oracleAssignment is the whole-schedule cluster ordering the length
// kernel replaced: every node queried and placed on a clique schedule
// in order, at its earliest non-insertion start on its processor. It
// survives only as the reference clusterTimes is pinned to.
func oracleAssignment(g *dag.Graph, order []dag.NodeID, assign []int, numProcs int, speeds []float64) *sched.Schedule {
	s := acquire(g, numProcs, speeds)
	for _, n := range order {
		est, ok := s.ESTOn(n, assign[n], false)
		if !ok {
			panic("unc: assignment order is not topological")
		}
		s.MustPlace(n, assign[n], est)
	}
	return s
}

// kernelCase is a graph, a cluster assignment on numProcs processors
// and an optional speed vector covering them.
type kernelCase struct {
	g        *dag.Graph
	assign   []int
	numProcs int
	speeds   []float64
}

// randomKernelCase draws a DAG of 1 to 30 nodes whose task weights and
// edge costs include zero, a random assignment and, half the time,
// random speeds.
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
	c.assign = make([]int, n)
	for v := range c.assign {
		c.assign[v] = rng.Intn(c.numProcs)
	}
	if rng.Intn(2) == 0 {
		c.speeds = make([]float64, n)
		for p := range c.speeds {
			c.speeds[p] = 0.5 + 2.5*rng.Float64()
		}
	}
	return c
}

// assertKernelMatchesOracle checks clusterTimes against the
// whole-schedule oracle: equal length and starts, the bound honoured
// exactly at the length, and the built schedule equal to the oracle's.
func assertKernelMatchesOracle(t *testing.T, label string, c kernelCase) {
	t.Helper()
	order := algo.PriorityOrder(c.g, dag.BLevels(c.g))
	want := oracleAssignment(c.g, order, c.assign, c.numProcs, c.speeds)
	defer want.Release()
	k := newClusterTimes(c.g, order, c.numProcs, c.speeds)
	l, ok := k.run(c.assign, math.MaxInt64)
	if !ok || l != want.Length() {
		t.Fatalf("%s: kernel length %d (complete %v), schedule length %d", label, l, ok, want.Length())
	}
	for v := 0; v < c.g.NumNodes(); v++ {
		if k.start[v] != want.StartOf(dag.NodeID(v)) || k.fin[v] != want.FinishOf(dag.NodeID(v)) {
			t.Fatalf("%s: node %d at [%d,%d), schedule says [%d,%d)", label, v,
				k.start[v], k.fin[v], want.StartOf(dag.NodeID(v)), want.FinishOf(dag.NodeID(v)))
		}
	}
	if _, ok := k.run(c.assign, l); !ok {
		t.Fatalf("%s: bound %d equal to the length stopped the pass", label, l)
	}
	if l > 0 {
		if _, ok := k.run(c.assign, l-1); ok {
			t.Fatalf("%s: bound %d below the length %d completed the pass", label, l-1, l)
		}
	}
	got := k.schedule(c.assign)
	defer got.Release()
	if got.String() != want.String() {
		t.Fatalf("%s: built schedule\n%v\noracle\n%v", label, got, want)
	}
}

func TestClusterTimesMatchesSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(2301))
	for i := 0; i < 400; i++ {
		assertKernelMatchesOracle(t, fmt.Sprintf("case %d", i), randomKernelCase(rng))
	}
}

// decodeKernelCase builds a kernel case from arbitrary bytes: the first
// byte picks the node count (1 to 24), the second the processor count,
// the third whether speeds are used (and seeds them); then one byte per
// node gives its weight (0 to 7) and its processor, and every following
// triple (i, j, c) an edge from the smaller index to the larger with
// cost c mod 16. Self-loops and repeated pairs are dropped. It reports
// false for inputs under three bytes.
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
	data = data[3:]
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		var x byte
		if i < len(data) {
			x = data[i]
		}
		b.AddNode(int64(x % 8))
		c.assign[i] = int(x/8) % c.numProcs
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := decodeKernelCase(data); ok {
			assertKernelMatchesOracle(t, fmt.Sprintf("fuzz case %x", data), c)
		}
	})
}

// oracleEZ is EZ scoring every merge with a whole oracleAssignment
// schedule.
func oracleEZ(g *dag.Graph, speeds []float64) *sched.Schedule {
	n := g.NumNodes()
	order := algo.PriorityOrder(g, dag.BLevels(g))
	assign := make([]int, n)
	for v := range assign {
		assign[v] = v
	}
	estimate := func() int64 {
		s := oracleAssignment(g, order, assign, n, speeds)
		defer s.Release()
		return s.Length()
	}
	type edge struct {
		from, to dag.NodeID
		weight   int64
	}
	var edges []edge
	for v := 0; v < n; v++ {
		for _, a := range g.Succs(dag.NodeID(v)) {
			edges = append(edges, edge{dag.NodeID(v), a.To, a.Weight})
		}
	}
	// Descending cost, then ascending endpoints: EZ's examination order.
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0; j-- {
			a, b := edges[j-1], edges[j]
			if a.weight > b.weight || (a.weight == b.weight && (a.from < b.from || (a.from == b.from && a.to < b.to))) {
				break
			}
			edges[j-1], edges[j] = b, a
		}
	}
	best := estimate()
	for _, e := range edges {
		cu, cv := assign[e.from], assign[e.to]
		if cu == cv {
			continue
		}
		// Merge the cluster with fewer members into the other, into
		// the parent's on a tie, as EZ does.
		size := func(c int) (k int) {
			for _, a := range assign {
				if a == c {
					k++
				}
			}
			return k
		}
		if size(cu) < size(cv) {
			cu, cv = cv, cu
		}
		prev := append([]int(nil), assign...)
		for v := range assign {
			if assign[v] == cv {
				assign[v] = cu
			}
		}
		if l := estimate(); l <= best {
			best = l
			continue
		}
		copy(assign, prev)
	}
	return oracleAssignment(g, order, assign, n, speeds)
}

// TestEZMatchesWholeScheduleOracle pins EZ to merges scored by whole
// schedules, on random graphs with zero weights, with and without
// speeds.
func TestEZMatchesWholeScheduleOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2302))
	for i := 0; i < 150; i++ {
		c := randomKernelCase(rng)
		got, err := runEZ(c.g, c.speeds)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleEZ(c.g, c.speeds)
		if got.String() != want.String() {
			t.Fatalf("case %d: EZ\n%v\noracle\n%v", i, got, want)
		}
		got.Release()
		want.Release()
	}
}

// TestEZTracesOnePlacementPerNode checks that a traced EZ run records
// the placements of its final schedule only: one record per node, none
// for the scored merges.
func TestEZTracesOnePlacementPerNode(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, obs.TraceJSONL)
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)
	rng := rand.New(rand.NewSource(2303))
	for i := 0; i < 10; i++ {
		g := randomGraph(rng, 2+rng.Intn(30), 1+rng.Int63n(80))
		tr.BeginRun("EZ", "UNC", g.NumNodes(), g.NumNodes())
		if _, err := EZ(g); err != nil {
			t.Fatal(err)
		}
		tr.EndRun()
		if got := bytes.Count(buf.Bytes(), []byte(`"type":"place"`)); got != g.NumNodes() {
			t.Fatalf("graph %d: EZ traced %d placements for %d nodes", i, got, g.NumNodes())
		}
		for v := 0; v < g.NumNodes(); v++ {
			if !bytes.Contains(buf.Bytes(), []byte(fmt.Sprintf(`"node":%d,`, v))) {
				t.Fatalf("graph %d: no placement record for node %d", i, v)
			}
		}
		buf.Reset()
	}
}
