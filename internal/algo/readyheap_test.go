package algo

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
)

// heapCase is one graph with one priority vector for the heap tests.
type heapCase struct {
	name string
	g    *dag.Graph
	prio []int64
}

// tieGraph is a hand-built layered graph with zero-weight nodes,
// zero-weight edges and many equal levels, so selection keeps falling
// through to the node-ID tie-break.
func tieGraph() *dag.Graph {
	b := dag.NewBuilder()
	rng := rand.New(rand.NewSource(7))
	var prev []dag.NodeID
	for layer := 0; layer < 6; layer++ {
		var cur []dag.NodeID
		for i := 0; i < 5; i++ {
			cur = append(cur, b.AddNode(int64(rng.Intn(3)))) // weights 0..2
		}
		for _, to := range cur {
			for _, from := range prev {
				if rng.Intn(3) == 0 {
					b.AddEdge(from, to, int64(rng.Intn(2))) // weights 0..1
				}
			}
		}
		prev = cur
	}
	return b.MustBuild()
}

// heapCases returns every generator family plus the tie graph, each
// under its b-levels, its static levels, and a coarse priority that
// makes most ready nodes tie.
func heapCases(t *testing.T) []heapCase {
	t.Helper()
	graphs := map[string]*dag.Graph{"ties": tieGraph()}
	names := []string{"ties"}
	for _, fam := range gen.Generators() {
		params := gen.Params{}
		if fam.Random {
			params["v"] = "60"
			params["ccr"] = "1.0"
		}
		if fam.Name == "psg" {
			params["name"] = "wu-gajski-18"
		}
		g, err := gen.Generate(fam.Name, 3, params)
		if err != nil {
			t.Fatalf("generate %s: %v", fam.Name, err)
		}
		graphs[fam.Name] = g
		names = append(names, fam.Name)
	}
	var cases []heapCase
	for _, name := range names {
		g := graphs[name]
		lv := dag.ComputeLevels(g)
		coarse := make([]int64, g.NumNodes())
		for v, b := range lv.B {
			coarse[v] = b / 4
		}
		cases = append(cases,
			heapCase{name + "/blevel", g, lv.B},
			heapCase{name + "/static", g, lv.Static},
			heapCase{name + "/coarse", g, coarse})
	}
	return cases
}

// TestReadyHeapPopMatchesMaxBy drives a ReadyHeap and the naive
// reference set through the same sequence of steps: mostly PopMax, with
// random Remove calls interleaved. At every step the heap's Ready()
// holds exactly the reference set's nodes, and PopMax returns what MaxBy
// selects over Ready().
func TestReadyHeapPopMatchesMaxBy(t *testing.T) {
	for _, c := range heapCases(t) {
		rng := rand.New(rand.NewSource(42))
		h := AcquireReadyHeap(c.g, c.prio)
		ref := newNaiveReady(c.g)
		by := func(n dag.NodeID) int64 { return c.prio[n] }
		steps := 0
		for !h.Empty() {
			got := sortedIDs(h.Ready())
			if len(got) != len(ref.ready) || h.Len() != len(got) {
				t.Fatalf("%s step %d: heap holds %d (Len %d), reference %d", c.name, steps, len(got), h.Len(), len(ref.ready))
			}
			for _, n := range got {
				if !ref.ready[n] {
					t.Fatalf("%s step %d: node %d in heap but not in reference set", c.name, steps, n)
				}
			}
			var n dag.NodeID
			if rng.Intn(4) == 0 {
				n = got[rng.Intn(len(got))]
				h.Remove(n)
			} else {
				want := MaxBy(h.Ready(), by)
				if n = h.PopMax(); n != want {
					t.Fatalf("%s step %d: PopMax = %d, MaxBy = %d", c.name, steps, n, want)
				}
			}
			delete(ref.ready, n)
			h.MarkScheduled(c.g, n)
			ref.markScheduled(c.g, n)
			steps++
		}
		h.Release()
		if steps != c.g.NumNodes() || len(ref.ready) != 0 {
			t.Fatalf("%s: heap drained after %d of %d nodes, reference has %d ready", c.name, steps, c.g.NumNodes(), len(ref.ready))
		}
	}
}

// maxByOrder is PriorityOrder's reference: a Kahn pass over a ReadySet
// that selects each node with MaxBy.
func maxByOrder(g *dag.Graph, prio []int64) []dag.NodeID {
	rs := NewReadySet(g)
	var order []dag.NodeID
	for !rs.Empty() {
		n := MaxBy(rs.Ready(), func(m dag.NodeID) int64 { return prio[m] })
		rs.Pop(n)
		rs.MarkScheduled(g, n)
		order = append(order, n)
	}
	return order
}

func TestPriorityOrderMatchesMaxBy(t *testing.T) {
	for _, c := range heapCases(t) {
		got, want := PriorityOrder(c.g, c.prio), maxByOrder(c.g, c.prio)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: PriorityOrder = %v, want %v", c.name, got, want)
		}
	}
}

func TestReadyHeapRemovePanicsOnNonReady(t *testing.T) {
	g, ids := diamond(t)
	h := AcquireReadyHeap(g, dag.BLevels(g))
	defer func() {
		if recover() == nil {
			t.Fatal("Remove of a blocked node should panic")
		}
	}()
	h.Remove(ids[3])
}

// TestReadyHeapDrainAllocs pins the pooled heap: a full reset/drain
// cycle on warm backing arrays allocates nothing.
func TestReadyHeapDrainAllocs(t *testing.T) {
	g, err := gen.Generate("rgnos", 9, gen.Params{"v": "80", "ccr": "1.0"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	prio := dag.BLevels(g)
	h := AcquireReadyHeap(g, prio)
	defer h.Release()
	run := func() {
		h.Reset(g, prio)
		for !h.Empty() {
			h.MarkScheduled(g, h.PopMax())
		}
	}
	run() // warm capacities
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("ready-heap drain allocates %.1f objects per run, want 0", allocs)
	}
}
