package bnp

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/sched"
)

// allAlgorithms in deterministic name order for table-driven tests.
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
		b.AddNode(1 + rng.Int63n(30))
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
	if len(m) != 6 {
		t.Fatalf("registry has %d algorithms, want 6", len(m))
	}
	for _, want := range []string{"HLFET", "ISH", "MCP", "ETF", "DLS", "LAST"} {
		if m[want] == nil {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestAllProduceValidCompleteSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	graphs := make([]*dag.Graph, 0, 12)
	for i := 0; i < 12; i++ {
		graphs = append(graphs, randomGraph(rng, 2+rng.Intn(40), 1+rng.Int63n(60)))
	}
	for _, tc := range allAlgorithms() {
		t.Run(tc.name, func(t *testing.T) {
			for gi, g := range graphs {
				for _, p := range []int{1, 2, 4, 9} {
					s, err := tc.run(g, p)
					if err != nil {
						t.Fatalf("graph %d procs %d: %v", gi, p, err)
					}
					if !s.Complete() {
						t.Fatalf("graph %d procs %d: incomplete schedule", gi, p)
					}
					if err := s.Validate(); err != nil {
						t.Fatalf("graph %d procs %d: %v", gi, p, err)
					}
					if used := s.ProcessorsUsed(); used > p {
						t.Fatalf("graph %d: used %d of %d processors", gi, used, p)
					}
					if s.NSL() < 1.0-1e-9 {
						t.Fatalf("graph %d procs %d: NSL %v < 1", gi, p, s.NSL())
					}
				}
			}
		})
	}
}

func TestAllDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	g := randomGraph(rng, 30, 40)
	for _, tc := range allAlgorithms() {
		s1, err := tc.run(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := tc.run(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if s1.Length() != s2.Length() {
			t.Errorf("%s: lengths differ between runs: %d vs %d", tc.name, s1.Length(), s2.Length())
		}
		for v := 0; v < g.NumNodes(); v++ {
			n := dag.NodeID(v)
			if s1.ProcOf(n) != s2.ProcOf(n) || s1.StartOf(n) != s2.StartOf(n) {
				t.Fatalf("%s: node %d placed differently between runs", tc.name, v)
			}
		}
	}
}

func TestSingleProcessorIsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomGraph(rng, 20, 50)
	for _, tc := range allAlgorithms() {
		s, err := tc.run(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s.Length() != g.TotalComputation() {
			t.Errorf("%s: 1-proc length %d, want serial %d (no idle should be needed)",
				tc.name, s.Length(), g.TotalComputation())
		}
	}
}

func TestSingleNodeGraph(t *testing.T) {
	b := dag.NewBuilder()
	b.AddNode(7)
	g := b.MustBuild()
	for _, tc := range allAlgorithms() {
		s, err := tc.run(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if s.Length() != 7 {
			t.Errorf("%s: length = %d, want 7", tc.name, s.Length())
		}
	}
}

func TestIndependentTasksSpread(t *testing.T) {
	// Four equal independent tasks on four processors must run in
	// parallel under every greedy EST-based algorithm.
	b := dag.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode(5)
	}
	g := b.MustBuild()
	for _, tc := range allAlgorithms() {
		s, err := tc.run(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if s.Length() != 5 {
			t.Errorf("%s: length = %d, want 5 (perfect spread)", tc.name, s.Length())
		}
		if s.ProcessorsUsed() != 4 {
			t.Errorf("%s: used %d processors, want 4", tc.name, s.ProcessorsUsed())
		}
	}
}

func TestErrorCases(t *testing.T) {
	g := dag.NewBuilder().MustBuild()
	for _, tc := range allAlgorithms() {
		if _, err := tc.run(nil, 2); err == nil {
			t.Errorf("%s accepted nil graph", tc.name)
		}
		if _, err := tc.run(g, 0); err == nil {
			t.Errorf("%s accepted zero processors", tc.name)
		}
		s, err := tc.run(g, 2)
		if err != nil || s.Length() != 0 {
			t.Errorf("%s failed on empty graph: %v", tc.name, err)
		}
	}
}

// ishHoleGraph is crafted so that plain HLFET leaves an idle hole on P0
// that ISH fills with node M:
//
//	A(2)=n0 entry, Z(1)=n1 entry,
//	C(4)=n2 with parents A (c=9) and Z (c=5),
//	M(3)=n3 child of A (c=4).
func ishHoleGraph(t *testing.T) (*dag.Graph, [4]dag.NodeID) {
	t.Helper()
	b := dag.NewBuilder()
	a := b.AddLabeledNode(2, "A")
	z := b.AddLabeledNode(1, "Z")
	c := b.AddLabeledNode(4, "C")
	m := b.AddLabeledNode(3, "M")
	b.AddEdge(a, c, 9)
	b.AddEdge(z, c, 5)
	b.AddEdge(a, m, 4)
	return b.MustBuild(), [4]dag.NodeID{a, z, c, m}
}

func TestISHFillsHole(t *testing.T) {
	g, ids := ishHoleGraph(t)
	s, err := ISH(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// A on P0 [0,2), Z on P1 [0,1), C on P0 [6,10) leaving hole [2,6);
	// ISH inserts M into the hole at [2,5).
	if s.ProcOf(ids[3]) != 0 || s.StartOf(ids[3]) != 2 {
		t.Errorf("M placed on P%d at %d, want P0 at 2 (hole filling)\n%s",
			s.ProcOf(ids[3]), s.StartOf(ids[3]), s)
	}
	if s.Length() != 10 {
		t.Errorf("ISH length = %d, want 10", s.Length())
	}

	h, err := HLFET(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// HLFET cannot insert: M lands after C or on P1, never inside the hole.
	if h.ProcOf(ids[3]) == 0 && h.StartOf(ids[3]) < 6 {
		t.Errorf("HLFET unexpectedly filled the hole:\n%s", h)
	}
}

func TestMCPOrderDiamond(t *testing.T) {
	// Diamond a(2)->{b(3,c=1), c(4,c=5)}->d(1): ALAPs a=0, b=9, c=7, d=14.
	// MCP order must be a, c, b, d (ascending ALAP lists).
	b := dag.NewBuilder()
	na := b.AddNode(2)
	nb := b.AddNode(3)
	nc := b.AddNode(4)
	nd := b.AddNode(1)
	b.AddEdge(na, nb, 1)
	b.AddEdge(na, nc, 5)
	b.AddEdge(nb, nd, 2)
	b.AddEdge(nc, nd, 3)
	g := b.MustBuild()
	order := algo.ALAPListOrder(g)
	want := []dag.NodeID{na, nc, nb, nd}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ALAPListOrder = %v, want %v", order, want)
		}
	}
}

func TestMCPListTieBrokenByDescendants(t *testing.T) {
	// Two entry nodes with equal ALAP but different descendant lists:
	// the lexicographically smaller list must come first, even though
	// the other entry has the smaller ID.
	//
	//	y(5) -> v(1) with edge cost 6; x(5) -> u(3) with edge cost 4.
	b := dag.NewBuilder()
	y := b.AddNode(5)
	x := b.AddNode(5)
	u := b.AddNode(3)
	v := b.AddNode(1)
	b.AddEdge(x, u, 4) // path length 12
	b.AddEdge(y, v, 6) // path length 12
	g := b.MustBuild()
	// CP = 12 on both paths. ALAP: x = y = 0, u = 9, v = 11.
	// Lists: x = [0 9], y = [0 11], u = [9], v = [11].
	want := []dag.NodeID{x, y, u, v}
	if got := algo.ALAPListOrder(g); !slices.Equal(got, want) {
		t.Errorf("MCP order %v, want %v", got, want)
	}
}

func TestETFPicksGlobalEarliestPair(t *testing.T) {
	// Entry e(4); children f(1, c=10) and g2(1, c=1).
	// After e on P0: f EST on P0 = 4, on P1 = 14; g2 on P0 = 4 (after... )
	b := dag.NewBuilder()
	e := b.AddNode(4)
	f := b.AddNode(1)
	g2 := b.AddNode(1)
	b.AddEdge(e, f, 10)
	b.AddEdge(e, g2, 1)
	g := b.MustBuild()
	s, err := ETF(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both children have EST 4 on P0; the first scheduled there, the
	// second must compare P0 (after first child) vs P1 (comm).
	if s.Length() != 6 {
		t.Errorf("ETF length = %d, want 6\n%s", s.Length(), s)
	}
}

func TestDLSPrefersHighLevelUnderEqualEST(t *testing.T) {
	// Two ready entries with equal EST 0 on both processors: the one
	// with the higher static level must be picked first.
	b := dag.NewBuilder()
	lo := b.AddNode(1)  // SL 1
	hi := b.AddNode(10) // SL 10
	g := b.MustBuild()
	s, err := DLS(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.StartOf(hi) != 0 {
		t.Errorf("DLS scheduled low-level node first:\n%s", s)
	}
	if s.StartOf(lo) != 10 {
		t.Errorf("lo starts at %d, want 10", s.StartOf(lo))
	}
}

func TestLASTPrefersConnectedNode(t *testing.T) {
	// After the entry is scheduled, LAST must pick the child with the
	// heaviest connection to it, even if another ready node has a much
	// higher level.
	b := dag.NewBuilder()
	e := b.AddNode(2)
	heavy := b.AddNode(1) // child of e with cost 50 edge
	b.AddNode(9)          // independent entry: D_NODE 0 until neighbors scheduled
	b.AddEdge(e, heavy, 50)
	g := b.MustBuild()
	s, err := LAST(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// e first (D_NODE 0 for both entries, e has SL 3 vs other's 9...).
	// other actually wins the first pick by static level; after that e
	// is the remaining entry, then heavy (D_NODE 1) must precede nothing
	// else. The invariant we check: heavy lands on e's processor.
	if s.ProcOf(heavy) != s.ProcOf(e) {
		t.Errorf("LAST separated strongly-connected pair:\n%s", s)
	}
}

func TestDNodeComputation(t *testing.T) {
	b := dag.NewBuilder()
	x := b.AddNode(1)
	y := b.AddNode(1)
	z := b.AddNode(1)
	b.AddEdge(x, z, 30)
	b.AddEdge(y, z, 10)
	g := b.MustBuild()
	s := sched.New(g, 2)
	if d := dNode(g, s, z); d != 0 {
		t.Errorf("D_NODE with nothing scheduled = %v, want 0", d)
	}
	s.MustPlace(x, 0, 0)
	if d := dNode(g, s, z); d != 0.75 {
		t.Errorf("D_NODE = %v, want 0.75 (30 of 40)", d)
	}
	s.MustPlace(y, 1, 0)
	if d := dNode(g, s, z); d != 1 {
		t.Errorf("D_NODE = %v, want 1", d)
	}
	// x's only neighbor is z, which is unscheduled: D_NODE(x) = 0.
	if d := dNode(g, s, x); d != 0 {
		t.Errorf("D_NODE(x) = %v, want 0 (only neighbor unscheduled)", d)
	}
}

func TestDNodeZeroWeightEdges(t *testing.T) {
	b := dag.NewBuilder()
	x := b.AddNode(1)
	z := b.AddNode(1)
	b.AddEdge(x, z, 0)
	g := b.MustBuild()
	s := sched.New(g, 1)
	s.MustPlace(x, 0, 0)
	if d := dNode(g, s, z); d != 1 {
		t.Errorf("zero-weight D_NODE = %v, want 1 (count fallback)", d)
	}
}

// TestNoCommChainStaysLocal: with zero communication costs every
// algorithm should schedule a chain serially with no idle time.
func TestNoCommChainStaysLocal(t *testing.T) {
	b := dag.NewBuilder()
	prev := b.AddNode(3)
	var total int64 = 3
	for i := 0; i < 9; i++ {
		n := b.AddNode(int64(1 + i%4))
		total += int64(1 + i%4)
		b.AddEdge(prev, n, 0)
		prev = n
	}
	g := b.MustBuild()
	for _, tc := range allAlgorithms() {
		s, err := tc.run(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if s.Length() != total {
			t.Errorf("%s: chain length = %d, want %d", tc.name, s.Length(), total)
		}
	}
}

// TestMoreProcsNeverWorseForked: for a fork of independent children,
// adding processors must not increase any algorithm's schedule length.
func TestMoreProcsNeverWorseForked(t *testing.T) {
	b := dag.NewBuilder()
	root := b.AddNode(2)
	for i := 0; i < 8; i++ {
		c := b.AddNode(4)
		b.AddEdge(root, c, 1)
	}
	g := b.MustBuild()
	for _, tc := range allAlgorithms() {
		prev := int64(-1)
		for _, p := range []int{1, 2, 4, 8} {
			s, err := tc.run(g, p)
			if err != nil {
				t.Fatal(err)
			}
			if prev >= 0 && s.Length() > prev {
				t.Errorf("%s: length increased from %d to %d when procs doubled to %d",
					tc.name, prev, s.Length(), p)
			}
			prev = s.Length()
		}
	}
}

func TestDLSMatchesETFOnIndependentTasks(t *testing.T) {
	// With no edges static levels equal weights, so DLS and ETF may
	// differ in pick order, but both must produce optimal-length
	// schedules for uniform tasks (pure load balancing).
	b := dag.NewBuilder()
	for i := 0; i < 12; i++ {
		b.AddNode(2)
	}
	g := b.MustBuild()
	d, _ := DLS(g, 3)
	e, _ := ETF(g, 3)
	if d.Length() != 8 || e.Length() != 8 {
		t.Errorf("DLS length %d, ETF length %d, want both 8", d.Length(), e.Length())
	}
}

// zeroWeightGraph is a 12-node graph whose zero-weight tasks and
// zero-cost edges put zero-length slots exactly where later tasks start.
func zeroWeightGraph() *dag.Graph {
	b := dag.NewBuilder()
	for _, w := range []int64{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0} {
		b.AddNode(w)
	}
	for _, e := range [][3]int64{
		{0, 3, 1}, {1, 4, 1}, {0, 5, 1}, {5, 6, 0}, {1, 7, 1}, {5, 7, 0},
		{2, 8, 2}, {0, 9, 2}, {2, 11, 2}, {4, 11, 1}, {8, 11, 0},
	} {
		b.AddEdge(dag.NodeID(e[0]), dag.NodeID(e[1]), e[2])
	}
	return b.MustBuild()
}

// TestZeroLengthSlots schedules graphs on which a task's EST lands on
// the finish of a zero-length slot: LAST on n0(0) -> n1(5) with a
// zero-cost edge, and every algorithm on zeroWeightGraph. Each must
// return a valid complete schedule instead of reporting an overlap.
func TestZeroLengthSlots(t *testing.T) {
	b := dag.NewBuilder()
	n0 := b.AddNode(0)
	n1 := b.AddNode(5)
	b.AddEdge(n0, n1, 0)
	pair := b.MustBuild()
	s, err := LAST(pair, 2)
	if err != nil {
		t.Fatalf("LAST: %v", err)
	}
	if err := s.Validate(); err != nil || !s.Complete() || s.Length() != 5 {
		t.Fatalf("LAST: length %d, complete %v, validate %v", s.Length(), s.Complete(), err)
	}
	g := zeroWeightGraph()
	for _, tc := range allAlgorithms() {
		for _, procs := range []int{1, 2, 3} {
			s, err := tc.run(g, procs)
			if err != nil {
				t.Fatalf("%s on %d procs: %v", tc.name, procs, err)
			}
			if err := s.Validate(); err != nil || !s.Complete() {
				t.Fatalf("%s on %d procs: complete %v, validate %v", tc.name, procs, s.Complete(), err)
			}
		}
	}
}
