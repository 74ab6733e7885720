package dag

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestComputeLevelsDiamond(t *testing.T) {
	g, ids := diamond(t)
	lv := ComputeLevels(g)
	a, b, c, d := ids[0], ids[1], ids[2], ids[3]

	wantT := map[NodeID]int64{a: 0, b: 3, c: 7, d: 14}
	wantB := map[NodeID]int64{a: 15, b: 6, c: 8, d: 1}
	wantS := map[NodeID]int64{a: 7, b: 4, c: 5, d: 1}
	wantALAP := map[NodeID]int64{a: 0, b: 9, c: 7, d: 14}
	for n, want := range wantT {
		if lv.T[n] != want {
			t.Errorf("T[%s] = %d, want %d", g.Label(n), lv.T[n], want)
		}
	}
	for n, want := range wantB {
		if lv.B[n] != want {
			t.Errorf("B[%s] = %d, want %d", g.Label(n), lv.B[n], want)
		}
	}
	for n, want := range wantS {
		if lv.Static[n] != want {
			t.Errorf("Static[%s] = %d, want %d", g.Label(n), lv.Static[n], want)
		}
	}
	for n, want := range wantALAP {
		if lv.ALAP[n] != want {
			t.Errorf("ALAP[%s] = %d, want %d", g.Label(n), lv.ALAP[n], want)
		}
	}
	if lv.CPLength != 15 {
		t.Errorf("CPLength = %d, want 15", lv.CPLength)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	g, ids := diamond(t)
	cp := CriticalPath(g)
	want := []NodeID{ids[0], ids[2], ids[3]} // a -> c -> d
	if len(cp) != len(want) {
		t.Fatalf("CP = %v, want %v", cp, want)
	}
	for i := range cp {
		if cp[i] != want[i] {
			t.Fatalf("CP = %v, want %v", cp, want)
		}
	}
	if sum := CPComputationSum(g); sum != 7 {
		t.Errorf("CPComputationSum = %d, want 7 (2+4+1)", sum)
	}
}

func TestCPNodesDiamond(t *testing.T) {
	g, ids := diamond(t)
	lv := ComputeLevels(g)
	want := map[NodeID]bool{ids[0]: true, ids[1]: false, ids[2]: true, ids[3]: true}
	for n, w := range want {
		if on := lv.T[n]+lv.B[n] == lv.CPLength; on != w {
			t.Errorf("%s on a critical path = %v, want %v", g.Label(n), on, w)
		}
	}
}

func TestLevelsSingleNode(t *testing.T) {
	b := NewBuilder()
	n := b.AddNode(9)
	g := b.MustBuild()
	lv := ComputeLevels(g)
	if lv.T[n] != 0 || lv.B[n] != 9 || lv.Static[n] != 9 || lv.ALAP[n] != 0 {
		t.Errorf("single node levels T=%d B=%d S=%d ALAP=%d", lv.T[n], lv.B[n], lv.Static[n], lv.ALAP[n])
	}
	if lv.CPLength != 9 {
		t.Errorf("CPLength = %d, want 9", lv.CPLength)
	}
	cp := CriticalPath(g)
	if len(cp) != 1 || cp[0] != n {
		t.Errorf("CP = %v, want [%d]", cp, n)
	}
}

func TestLevelsChain(t *testing.T) {
	// Chain x(1) -3-> y(2) -4-> z(3): CP length 1+3+2+4+3 = 13.
	b := NewBuilder()
	x := b.AddNode(1)
	y := b.AddNode(2)
	z := b.AddNode(3)
	b.AddEdge(x, y, 3)
	b.AddEdge(y, z, 4)
	g := b.MustBuild()
	lv := ComputeLevels(g)
	if lv.CPLength != 13 {
		t.Fatalf("CPLength = %d, want 13", lv.CPLength)
	}
	if lv.T[z] != 10 || lv.B[x] != 13 || lv.Static[x] != 6 {
		t.Errorf("chain levels T[z]=%d B[x]=%d S[x]=%d", lv.T[z], lv.B[x], lv.Static[x])
	}
	cp := CriticalPath(g)
	if len(cp) != 3 {
		t.Errorf("CP = %v, want full chain", cp)
	}
}

func TestCriticalPathEmptyGraph(t *testing.T) {
	g := NewBuilder().MustBuild()
	if cp := CriticalPath(g); cp != nil {
		t.Errorf("CP of empty graph = %v, want nil", cp)
	}
	if s := CPComputationSum(g); s != 0 {
		t.Errorf("CPComputationSum = %d, want 0", s)
	}
}

// randomLayeredGraph builds a random DAG where edges only go from lower to
// higher IDs, so it is acyclic by construction.
func randomLayeredGraph(rng *rand.Rand, n int) *Graph {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(1 + rng.Int63n(40))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) == 0 {
				b.AddEdge(NodeID(i), NodeID(j), rng.Int63n(50))
			}
		}
	}
	return b.MustBuild()
}

func TestLevelInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := randomLayeredGraph(rng, 2+rng.Intn(30))
		lv := ComputeLevels(g)
		for v := 0; v < g.NumNodes(); v++ {
			id := NodeID(v)
			if lv.T[id]+lv.B[id] > lv.CPLength {
				t.Fatalf("T+B exceeds CP length at node %d", v)
			}
			if lv.B[id] < g.Weight(id) {
				t.Fatalf("B < node weight at node %d", v)
			}
			if lv.Static[id] > lv.B[id] {
				t.Fatalf("static level exceeds b-level at node %d", v)
			}
			if lv.ALAP[id] < lv.T[id] {
				t.Fatalf("ALAP %d earlier than t-level %d at node %d", lv.ALAP[id], lv.T[id], v)
			}
			for _, a := range g.Succs(id) {
				if lv.T[a.To] < lv.T[id]+g.Weight(id)+a.Weight {
					t.Fatalf("t-level recurrence violated on edge (%d,%d)", v, a.To)
				}
			}
		}
		cp := CriticalPath(g)
		if len(cp) == 0 {
			t.Fatal("no critical path on non-empty graph")
		}
		var pathLen int64
		for i, n := range cp {
			pathLen += g.Weight(n)
			if i+1 < len(cp) {
				w, ok := g.EdgeWeight(n, cp[i+1])
				if !ok {
					t.Fatalf("critical path uses missing edge (%d,%d)", n, cp[i+1])
				}
				pathLen += w
			}
		}
		if pathLen != lv.CPLength {
			t.Fatalf("critical path length %d != CPLength %d", pathLen, lv.CPLength)
		}
	}
}

func TestCPLengthLowerBoundsQuick(t *testing.T) {
	// Property: CP length is at least the maximum node weight and at least
	// the computation sum along the returned critical path.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomLayeredGraph(rng, 2+rng.Intn(20))
		lv := ComputeLevels(g)
		var maxW int64
		for v := 0; v < g.NumNodes(); v++ {
			if w := g.Weight(NodeID(v)); w > maxW {
				maxW = w
			}
		}
		return lv.CPLength >= maxW && lv.CPLength >= CPComputationSum(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
