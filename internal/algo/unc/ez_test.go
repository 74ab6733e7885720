package unc

import (
	"bytes"
	"fmt"
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
// survives only as the reference EZ's merge scores are pinned to; the
// kernel itself is pinned in package algo.
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
// and an optional speed vector covering them; EZ's oracle test uses the
// graph and the speeds.
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
