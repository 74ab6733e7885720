package dag

import (
	"bytes"
	"encoding/binary"
	"os"
	"strings"
	"testing"
)

// diamond builds the four-node diamond used by several tests:
//
//	a(2) --1--> b(3) --2--> d(1)
//	a(2) --5--> c(4) --3--> d(1)
func diamond(t *testing.T) (*Graph, [4]NodeID) {
	t.Helper()
	b := NewBuilder()
	na := b.AddLabeledNode(2, "a")
	nb := b.AddLabeledNode(3, "b")
	nc := b.AddLabeledNode(4, "c")
	nd := b.AddLabeledNode(1, "d")
	b.AddEdge(na, nb, 1)
	b.AddEdge(na, nc, 5)
	b.AddEdge(nb, nd, 2)
	b.AddEdge(nc, nd, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, [4]NodeID{na, nb, nc, nd}
}

func TestBuilderBasics(t *testing.T) {
	g, ids := diamond(t)
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if w := g.Weight(ids[2]); w != 4 {
		t.Errorf("Weight(c) = %d, want 4", w)
	}
	if l := g.Label(ids[3]); l != "d" {
		t.Errorf("Label(d) = %q, want d", l)
	}
	if w, ok := g.EdgeWeight(ids[0], ids[2]); !ok || w != 5 {
		t.Errorf("EdgeWeight(a,c) = %d,%v want 5,true", w, ok)
	}
	if _, ok := g.EdgeWeight(ids[1], ids[2]); ok {
		t.Error("EdgeWeight(b,c) should not exist")
	}
	if g.HasEdge(ids[3], ids[0]) {
		t.Error("HasEdge(d,a) should be false")
	}
	if d := g.OutDegree(ids[0]); d != 2 {
		t.Errorf("OutDegree(a) = %d, want 2", d)
	}
	if d := g.InDegree(ids[3]); d != 2 {
		t.Errorf("InDegree(d) = %d, want 2", d)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestEntriesExits(t *testing.T) {
	g, ids := diamond(t)
	entries := g.Entries()
	if len(entries) != 1 || entries[0] != ids[0] {
		t.Errorf("Entries = %v, want [a]", entries)
	}
	exits := g.Exits()
	if len(exits) != 1 || exits[0] != ids[3] {
		t.Errorf("Exits = %v, want [d]", exits)
	}
}

func TestTotalsAndCCR(t *testing.T) {
	g, _ := diamond(t)
	if c := g.TotalComputation(); c != 10 {
		t.Errorf("TotalComputation = %d, want 10", c)
	}
	if c := g.TotalCommunication(); c != 11 {
		t.Errorf("TotalCommunication = %d, want 11", c)
	}
	// avg comm = 11/4, avg comp = 10/4 -> CCR = 11/10.
	if ccr := g.CCR(); ccr < 1.09 || ccr > 1.11 {
		t.Errorf("CCR = %v, want 1.1", ccr)
	}
}

func TestCCREmptyAndEdgeless(t *testing.T) {
	b := NewBuilder()
	b.AddNode(5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.CCR() != 0 {
		t.Errorf("edgeless CCR = %v, want 0", g.CCR())
	}
	empty, err := NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	if empty.CCR() != 0 {
		t.Errorf("empty CCR = %v, want 0", empty.CCR())
	}
	if empty.NumNodes() != 0 || empty.NumEdges() != 0 {
		t.Error("empty graph should have no nodes or edges")
	}
}

func TestTopoOrderIsTopological(t *testing.T) {
	g, _ := diamond(t)
	pos := make(map[NodeID]int)
	for i, v := range g.TopoOrder() {
		pos[v] = i
	}
	if len(pos) != g.NumNodes() {
		t.Fatalf("topo order has %d nodes, want %d", len(pos), g.NumNodes())
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, a := range g.Succs(NodeID(v)) {
			if pos[NodeID(v)] >= pos[a.To] {
				t.Errorf("edge (%d,%d) violates topo order", v, a.To)
			}
		}
	}
}

func TestTopoOrderReturnsCopy(t *testing.T) {
	g, _ := diamond(t)
	o1 := g.TopoOrder()
	o1[0] = 99
	o2 := g.TopoOrder()
	if o2[0] == 99 {
		t.Error("TopoOrder aliases internal state")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
	}{
		{"negative node cost", func(b *Builder) { b.AddNode(-1) }},
		{"unknown endpoint", func(b *Builder) {
			n := b.AddNode(1)
			b.AddEdge(n, n+5, 0)
		}},
		{"self loop", func(b *Builder) {
			n := b.AddNode(1)
			b.AddEdge(n, n, 1)
		}},
		{"negative edge cost", func(b *Builder) {
			u, v := b.AddNode(1), b.AddNode(1)
			b.AddEdge(u, v, -2)
		}},
		{"duplicate edge", func(b *Builder) {
			u, v := b.AddNode(1), b.AddNode(1)
			b.AddEdge(u, v, 1)
			b.AddEdge(u, v, 2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			tc.build(b)
			if _, err := b.Build(); err == nil {
				t.Error("Build succeeded, want error")
			}
		})
	}
}

func TestBuildCycleDetection(t *testing.T) {
	b := NewBuilder()
	x := b.AddNode(1)
	y := b.AddNode(1)
	z := b.AddNode(1)
	b.AddEdge(x, y, 1)
	b.AddEdge(y, z, 1)
	b.AddEdge(z, x, 1)
	if _, err := b.Build(); err != ErrCycle {
		t.Errorf("Build err = %v, want ErrCycle", err)
	}
}

func TestBuilderDetachesAfterBuild(t *testing.T) {
	b := NewBuilder()
	b.AddNode(1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the builder after Build must not affect the built graph.
	b.AddNode(7)
	if g.NumNodes() != 1 {
		t.Errorf("graph mutated through builder: NumNodes = %d", g.NumNodes())
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid graph")
		}
	}()
	b := NewBuilder()
	b.AddNode(-5)
	b.MustBuild()
}

func TestReachable(t *testing.T) {
	g, ids := diamond(t)
	if !Reachable(g, ids[0], ids[3]) {
		t.Error("a should reach d")
	}
	if Reachable(g, ids[1], ids[2]) {
		t.Error("b should not reach c")
	}
	if Reachable(g, ids[3], ids[0]) {
		t.Error("d should not reach a")
	}
	if Reachable(g, ids[0], ids[0]) {
		t.Error("a is not strictly reachable from itself")
	}
}

func TestDOTContainsStructure(t *testing.T) {
	g, _ := diamond(t)
	dot := DOT(g, "demo")
	for _, want := range []string{"digraph", "0 -> 1", "2 -> 3", "label=\"a", "label=\"5\""} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g, _ := diamond(t)
	// Break the mirror invariant directly: rewrite node 3's only
	// predecessor arcs to point at the wrong parent.
	for i := g.predOff[3]; i < g.predOff[4]; i++ {
		g.predArcs[i].To = 3 - g.predArcs[i].To
		break
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted corrupted graph")
	}
}

// TestBuildRejectsWeightOverflow pins the total-weight bound: the
// weight-overflow fixture is rejected by both readers, and Build
// accepts a graph whose weights sum to exactly MaxTotalWeight but not
// one past it, counting edge weights too.
func TestBuildRejectsWeightOverflow(t *testing.T) {
	f, err := os.Open("testdata/weight-overflow.tg")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ReadText(f); err == nil || !strings.Contains(err.Error(), "total node and edge weight") {
		t.Errorf("ReadText of the overflow fixture: err = %v, want total-weight error", err)
	}
	// The same graph in the binary format: 2 nodes, 1 edge, no metadata.
	bin := []byte(BinaryMagic)
	for _, u := range []uint64{2, 1, 0, 9223372036854775000, 0, 9223372036854775000, 0, 1} {
		bin = binary.AppendUvarint(bin, u)
	}
	bin = binary.AppendVarint(bin, 1) // arc 0 -> 1
	bin = binary.AppendUvarint(bin, 5)
	bin = binary.AppendUvarint(bin, 0) // node 1 has no successors
	if _, err := ReadBinary(bytes.NewReader(bin)); err == nil || !strings.Contains(err.Error(), "total node and edge weight") {
		t.Errorf("ReadBinary of the overflow fixture: err = %v, want total-weight error", err)
	}

	build := func(w0, w1, e int64) error {
		b := NewBuilder()
		b.AddNode(w0)
		b.AddNode(w1)
		b.AddEdge(0, 1, e)
		_, err := b.Build()
		return err
	}
	if err := build(MaxTotalWeight/2, MaxTotalWeight/2-3, 3); err != nil {
		t.Errorf("total weight exactly at the bound rejected: %v", err)
	}
	if err := build(MaxTotalWeight/2, MaxTotalWeight/2-3, 4); err == nil {
		t.Error("total weight one past the bound accepted (edge weight counted)")
	}
	if err := build(MaxTotalWeight, 1, 0); err == nil {
		t.Error("total weight one past the bound accepted (node weights)")
	}
}
