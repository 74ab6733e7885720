package apn

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/machine"
)

func allAlgorithms() []struct {
	name string
	run  Scheduler
} {
	m := Algorithms()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]struct {
		name string
		run  Scheduler
	}, 0, len(m))
	for _, n := range names {
		out = append(out, struct {
			name string
			run  Scheduler
		}{n, m[n]})
	}
	return out
}

func randomGraph(rng *rand.Rand, n int, commScale int64) *dag.Graph {
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(1 + rng.Int63n(25))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) == 0 {
				b.AddEdge(dag.NodeID(i), dag.NodeID(j), rng.Int63n(commScale))
			}
		}
	}
	return b.MustBuild()
}

func TestAlgorithmsRegistry(t *testing.T) {
	m := Algorithms()
	if len(m) != 4 {
		t.Fatalf("registry has %d algorithms, want 4", len(m))
	}
	for _, want := range []string{"MH", "DLS", "BU", "BSA"} {
		if m[want] == nil {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestAllProduceValidSchedulesAcrossTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	topos := []*machine.Topology{
		machine.Ring(4),
		machine.Hypercube(3),
		machine.Mesh(2, 3),
		machine.Star(5),
		machine.Chain(4),
		machine.Clique(4),
	}
	graphs := make([]*dag.Graph, 0, 6)
	for i := 0; i < 6; i++ {
		graphs = append(graphs, randomGraph(rng, 2+rng.Intn(25), 1+rng.Int63n(60)))
	}
	for _, tc := range allAlgorithms() {
		t.Run(tc.name, func(t *testing.T) {
			for gi, g := range graphs {
				for _, topo := range topos {
					s, err := tc.run(g, topo)
					if err != nil {
						t.Fatalf("graph %d on %s: %v", gi, topo.Name(), err)
					}
					if !s.Complete() {
						t.Fatalf("graph %d on %s: incomplete", gi, topo.Name())
					}
					if err := s.Validate(); err != nil {
						t.Fatalf("graph %d on %s: %v", gi, topo.Name(), err)
					}
					if s.NSL() < 1.0-1e-9 {
						t.Fatalf("graph %d on %s: NSL %v < 1", gi, topo.Name(), s.NSL())
					}
				}
			}
		})
	}
}

func TestAllDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	g := randomGraph(rng, 20, 40)
	topo := machine.Hypercube(3)
	for _, tc := range allAlgorithms() {
		s1, err := tc.run(g, topo)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := tc.run(g, topo)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumNodes(); v++ {
			n := dag.NodeID(v)
			if s1.ProcOf(n) != s2.ProcOf(n) || s1.StartOf(n) != s2.StartOf(n) {
				t.Fatalf("%s: node %d differs across runs", tc.name, v)
			}
		}
	}
}

func TestErrorAndDegenerateCases(t *testing.T) {
	topo := machine.Ring(3)
	for _, tc := range allAlgorithms() {
		if _, err := tc.run(nil, topo); err == nil {
			t.Errorf("%s accepted nil graph", tc.name)
		}
		empty := dag.NewBuilder().MustBuild()
		if _, err := tc.run(empty, nil); err == nil {
			t.Errorf("%s accepted nil topology", tc.name)
		}
		if s, err := tc.run(empty, topo); err != nil || s.Length() != 0 {
			t.Errorf("%s empty graph: %v", tc.name, err)
		}
		b := dag.NewBuilder()
		b.AddNode(6)
		single := b.MustBuild()
		s, err := tc.run(single, topo)
		if err != nil || s.Length() != 6 {
			t.Errorf("%s single node: length %d, err %v", tc.name, s.Length(), err)
		}
	}
}

func TestSingleProcessorTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 15, 30)
	topo := machine.Clique(1)
	for _, tc := range allAlgorithms() {
		s, err := tc.run(g, topo)
		if err != nil {
			t.Fatal(err)
		}
		if s.Length() != g.TotalComputation() {
			t.Errorf("%s: 1-proc length %d, want serial %d", tc.name, s.Length(), g.TotalComputation())
		}
	}
}

func TestCPNDominantOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 2+rng.Intn(25), 50)
		order := cpnDominantOrder(g)
		if len(order) != g.NumNodes() {
			t.Fatalf("order covers %d of %d nodes", len(order), g.NumNodes())
		}
		pos := make(map[dag.NodeID]int, len(order))
		for i, n := range order {
			if _, dup := pos[n]; dup {
				t.Fatalf("node %d appears twice", n)
			}
			pos[n] = i
		}
		// Topological consistency.
		for v := 0; v < g.NumNodes(); v++ {
			for _, a := range g.Succs(dag.NodeID(v)) {
				if pos[dag.NodeID(v)] >= pos[a.To] {
					t.Fatalf("order violates edge (%d,%d)", v, a.To)
				}
			}
		}
		// The first critical-path node is preceded only by its ancestors.
		cp := dag.CriticalPath(g)
		first := cp[0]
		for _, m := range order[:pos[first]] {
			if !dag.Reachable(g, m, first) {
				t.Fatalf("non-ancestor %d precedes first CP node %d", m, first)
			}
		}
	}
}

func TestBSAMigratesOffCongestedPivot(t *testing.T) {
	// Two independent heavy tasks: serialized on the pivot they finish at
	// 10 and 20; bubbling must move one to a neighbor.
	b := dag.NewBuilder()
	b.AddNode(10)
	b.AddNode(10)
	g := b.MustBuild()
	s, err := BSA(g, machine.Chain(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.Length() != 10 {
		t.Errorf("BSA length = %d, want 10 (one migration)\n%s", s.Length(), s)
	}
	if s.ProcessorsUsed() != 2 {
		t.Errorf("BSA used %d processors, want 2", s.ProcessorsUsed())
	}
}

func TestBSAKeepsChainOnPivot(t *testing.T) {
	// A heavy-communication chain gains nothing from migration: BSA must
	// leave it serialized on the pivot.
	b := dag.NewBuilder()
	prev := b.AddNode(2)
	for i := 0; i < 5; i++ {
		n := b.AddNode(2)
		b.AddEdge(prev, n, 50)
		prev = n
	}
	g := b.MustBuild()
	s, err := BSA(g, machine.Ring(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.ProcessorsUsed() != 1 {
		t.Errorf("BSA split a heavy chain across %d processors\n%s", s.ProcessorsUsed(), s)
	}
	if s.Length() != 12 {
		t.Errorf("BSA chain length = %d, want 12", s.Length())
	}
}

func TestBUPlacesCPTogether(t *testing.T) {
	// Star topology: the hub has the highest degree, so BU maps the
	// critical path there.
	b := dag.NewBuilder()
	x := b.AddNode(5)
	y := b.AddNode(5)
	z := b.AddNode(5)
	b.AddEdge(x, y, 20)
	b.AddEdge(y, z, 20)
	w := b.AddNode(1) // off-CP node
	b.AddEdge(x, w, 1)
	g := b.MustBuild()
	s, err := BU(g, machine.Star(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.ProcOf(x) != 0 || s.ProcOf(y) != 0 || s.ProcOf(z) != 0 {
		t.Errorf("BU did not map the CP to the hub:\n%s", s)
	}
}

func TestMHRespectsContention(t *testing.T) {
	// One parent, two children, tiny weights but large messages, on a
	// two-processor chain: whatever MH does must validate, and any
	// remote child must start no earlier than finish+c.
	b := dag.NewBuilder()
	p := b.AddNode(2)
	c1 := b.AddNode(1)
	c2 := b.AddNode(1)
	b.AddEdge(p, c1, 10)
	b.AddEdge(p, c2, 10)
	g := b.MustBuild()
	s, err := MH(g, machine.Chain(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []dag.NodeID{c1, c2} {
		if s.ProcOf(c) != s.ProcOf(p) && s.StartOf(c) < 12 {
			t.Errorf("remote child starts at %d before message arrival", s.StartOf(c))
		}
	}
}

// TestDenseTopologyNoWorse reflects the paper's observation that "all
// algorithms perform better on networks with more communication links"
// (section 6.4.1): moving from a chain to a clique should not hurt, in
// aggregate, for any APN algorithm.
func TestDenseTopologyNoWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, tc := range allAlgorithms() {
		var chainTotal, cliqueTotal int64
		for i := 0; i < 8; i++ {
			g := randomGraph(rng, 18, 60)
			sChain, err := tc.run(g, machine.Chain(4))
			if err != nil {
				t.Fatal(err)
			}
			sClique, err := tc.run(g, machine.Clique(4))
			if err != nil {
				t.Fatal(err)
			}
			chainTotal += sChain.Length()
			cliqueTotal += sClique.Length()
		}
		if cliqueTotal > chainTotal+chainTotal/10 {
			t.Errorf("%s: clique total %d clearly worse than chain total %d",
				tc.name, cliqueTotal, chainTotal)
		}
	}
}

// TestFinishedSchedulesReadConcurrently reads every finished APN
// schedule from two goroutines at once. Every entry point drops the
// plan its last EST query left pending, so the reads write nothing,
// which the race detector checks.
func TestFinishedSchedulesReadConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for _, topo := range []*machine.Topology{machine.Chain(2), machine.Ring(3), machine.Mesh(2, 3)} {
		for i := 0; i < 4; i++ {
			g := randomGraph(rng, 2+rng.Intn(20), 1+rng.Int63n(40))
			for _, tc := range allAlgorithms() {
				s, err := tc.run(g, topo)
				if err != nil {
					t.Fatalf("%s on %s: %v", tc.name, topo.Name(), err)
				}
				errs := make(chan error, 2)
				for range 2 {
					go func() {
						for c := 0; c < topo.NumChannels(); c++ {
							s.LinkSlots(topo.Ends(c))
						}
						errs <- s.Validate()
					}()
				}
				for range 2 {
					if err := <-errs; err != nil {
						t.Fatalf("%s on %s: %v", tc.name, topo.Name(), err)
					}
				}
			}
		}
	}
}
