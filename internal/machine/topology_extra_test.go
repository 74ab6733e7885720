package machine

import (
	"testing"

	"repro/internal/dag"
)

func TestTorus(t *testing.T) {
	topo := Torus(3, 4)
	if topo.NumProcs() != 12 {
		t.Fatalf("NumProcs = %d, want 12", topo.NumProcs())
	}
	// Torus: every node has degree 4, links = 2*rows*cols.
	for p := 0; p < 12; p++ {
		if topo.Degree(p) != 4 {
			t.Errorf("P%d degree = %d, want 4", p, topo.Degree(p))
		}
	}
	if topo.NumLinks() != 24 {
		t.Errorf("NumLinks = %d, want 24", topo.NumLinks())
	}
	// Wraparound shortens the path: 0 to 3 in one hop, not three.
	if d := topo.Dist(0, 3); d != 1 {
		t.Errorf("Dist(0,3) = %d, want 1 (wraparound)", d)
	}
}

func TestTorusPanicsWhenTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("2x2 torus should panic (duplicate links)")
		}
	}()
	Torus(2, 2)
}

func TestBinaryTree(t *testing.T) {
	topo := BinaryTree(3)
	if topo.NumProcs() != 7 {
		t.Fatalf("NumProcs = %d, want 7", topo.NumProcs())
	}
	if topo.NumLinks() != 6 {
		t.Errorf("NumLinks = %d, want 6", topo.NumLinks())
	}
	if topo.Degree(0) != 2 {
		t.Errorf("root degree = %d, want 2", topo.Degree(0))
	}
	// Leaf to leaf crosses the root: distance 4 between 3 and 6.
	if d := topo.Dist(3, 6); d != 4 {
		t.Errorf("Dist(3,6) = %d, want 4", d)
	}
	if topo.Dist(1, 4) != 1 {
		t.Error("parent-child distance should be 1")
	}
}

func TestExtraTopologiesSchedule(t *testing.T) {
	// The new topologies must work with the APN schedule machinery.
	g, u, v := pairGraph(t)
	for _, topo := range []*Topology{Torus(3, 3), BinaryTree(3)} {
		s := NewSchedule(g, topo)
		s.MustPlace(u, 0, 0)
		p, est, ok := s.BestEST(v)
		if !ok {
			t.Fatalf("%s: BestEST failed", topo.Name())
		}
		s.MustPlace(v, p, est)
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
	}
}

func pairGraph(t *testing.T) (*dag.Graph, dag.NodeID, dag.NodeID) {
	t.Helper()
	return pair(t, 7)
}
