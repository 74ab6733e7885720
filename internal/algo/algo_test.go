package algo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
)

func diamond(t *testing.T) (*dag.Graph, [4]dag.NodeID) {
	t.Helper()
	b := dag.NewBuilder()
	a := b.AddNode(2)
	nb := b.AddNode(3)
	c := b.AddNode(4)
	d := b.AddNode(1)
	b.AddEdge(a, nb, 1)
	b.AddEdge(a, c, 5)
	b.AddEdge(nb, d, 2)
	b.AddEdge(c, d, 3)
	return b.MustBuild(), [4]dag.NodeID{a, nb, c, d}
}

func TestReadySetLifecycle(t *testing.T) {
	g, ids := diamond(t)
	r := NewReadySet(g)
	if r.Empty() {
		t.Fatal("entry node should be ready")
	}
	ready := r.Ready()
	if len(ready) != 1 || ready[0] != ids[0] {
		t.Fatalf("Ready = %v, want [a]", ready)
	}
	r.Pop(ids[0])
	if !r.Empty() {
		t.Fatal("popping the only ready node should empty the set")
	}
	r.MarkScheduled(g, ids[0])
	if len(r.Ready()) != 2 {
		t.Fatalf("b and c should be released, got %v", r.Ready())
	}
	r.Pop(ids[1])
	r.MarkScheduled(g, ids[1])
	// d still blocked by c.
	for _, n := range r.Ready() {
		if n == ids[3] {
			t.Fatal("d released before c scheduled")
		}
	}
	r.Pop(ids[2])
	r.MarkScheduled(g, ids[2])
	if len(r.Ready()) != 1 || r.Ready()[0] != ids[3] {
		t.Fatalf("Ready = %v, want [d]", r.Ready())
	}
}

func TestReadySetPopPanicsOnNonReady(t *testing.T) {
	g, ids := diamond(t)
	r := NewReadySet(g)
	defer func() {
		if recover() == nil {
			t.Error("Pop of blocked node did not panic")
		}
	}()
	r.Pop(ids[3])
}

func TestMaxByMinBy(t *testing.T) {
	ids := []dag.NodeID{3, 1, 2}
	prio := map[dag.NodeID]int64{1: 10, 2: 30, 3: 30}
	get := func(n dag.NodeID) int64 { return prio[n] }
	if m := MaxBy(ids, get); m != 2 {
		t.Errorf("MaxBy = %d, want 2 (tie broken toward smaller ID)", m)
	}
	same := func(dag.NodeID) int64 { return 7 }
	if m := MaxBy(ids, same); m != 1 {
		t.Errorf("all-equal MaxBy = %d, want smallest ID 1", m)
	}
}

// TestReadySetDrainsInTopologicalOrder is the central property: any
// pop/schedule order produced through a ReadySet is topological.
func TestReadySetDrainsInTopologicalOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		b := dag.NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode(1)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					b.AddEdge(dag.NodeID(i), dag.NodeID(j), 1)
				}
			}
		}
		g := b.MustBuild()
		r := NewReadySet(g)
		pos := make([]int, n)
		order := 0
		for !r.Empty() {
			ready := r.Ready()
			pick := ready[rng.Intn(len(ready))]
			r.Pop(pick)
			r.MarkScheduled(g, pick)
			pos[pick] = order
			order++
		}
		if order != n {
			return false
		}
		for v := 0; v < n; v++ {
			for _, a := range g.Succs(dag.NodeID(v)) {
				if pos[v] >= pos[a.To] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
