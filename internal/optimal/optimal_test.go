package optimal

import (
	"math/rand"
	"testing"

	"repro/internal/algo/bnp"
	"repro/internal/algo/unc"
	"repro/internal/dag"
	"repro/internal/sched"
)

func randomGraph(rng *rand.Rand, n int, commScale int64) *dag.Graph {
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(1 + rng.Int63n(20))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				b.AddEdge(dag.NodeID(i), dag.NodeID(j), rng.Int63n(commScale))
			}
		}
	}
	return b.MustBuild()
}

// bruteForce finds the optimal makespan by enumerating every topological
// permutation of the nodes and every processor assignment, replaying
// each with append-at-EST placement. Only usable for tiny graphs; serves
// as an independent oracle for the branch-and-bound.
func bruteForce(g *dag.Graph, numProcs int) int64 {
	n := g.NumNodes()
	best := int64(1) << 62
	perm := make([]dag.NodeID, 0, n)
	used := make([]bool, n)
	assign := make([]int, n)

	var replayAssignments func(i int)
	replayAssignments = func(i int) {
		if i == n {
			s := sched.New(g, numProcs)
			for _, node := range perm {
				est, ok := s.ESTOn(node, assign[node], false)
				if !ok {
					panic("brute force permutation not topological")
				}
				s.MustPlace(node, assign[node], est)
			}
			if l := s.Length(); l < best {
				best = l
			}
			return
		}
		for p := 0; p < numProcs; p++ {
			assign[perm[i]] = p
			replayAssignments(i + 1)
		}
	}

	var permute func()
	permute = func() {
		if len(perm) == n {
			replayAssignments(0)
			return
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			ok := true
			for _, pr := range g.Preds(dag.NodeID(v)) {
				if !used[pr.To] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			used[v] = true
			perm = append(perm, dag.NodeID(v))
			permute()
			perm = perm[:len(perm)-1]
			used[v] = false
		}
	}
	permute()
	return best
}

func TestMatchesBruteForceTinyGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 2+rng.Intn(4), 30) // 2..5 nodes
		for _, p := range []int{1, 2, 3} {
			want := bruteForce(g, p)
			res, err := Schedule(g, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Closed {
				t.Fatalf("trial %d: tiny search not closed", trial)
			}
			if res.Length != want {
				t.Fatalf("trial %d p=%d: B&B found %d, brute force %d\n%s",
					trial, p, res.Length, want, dag.DOT(g, "g"))
			}
			if err := res.Schedule.Validate(); err != nil {
				t.Fatalf("trial %d: invalid optimal schedule: %v", trial, err)
			}
			if res.Schedule.Length() != res.Length {
				t.Fatalf("trial %d: result length %d != schedule length %d",
					trial, res.Length, res.Schedule.Length())
			}
		}
	}
}

func TestKnownOptimaChain(t *testing.T) {
	// A chain is inherently serial: optimum = total weight regardless of
	// processor count.
	b := dag.NewBuilder()
	prev := b.AddNode(3)
	total := int64(3)
	for i := 0; i < 5; i++ {
		n := b.AddNode(int64(2 + i))
		total += int64(2 + i)
		b.AddEdge(prev, n, 10)
		prev = n
	}
	g := b.MustBuild()
	res, err := Schedule(g, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Closed || res.Length != total {
		t.Errorf("chain optimum = %d (closed=%v), want %d", res.Length, res.Closed, total)
	}
}

func TestKnownOptimaIndependent(t *testing.T) {
	// 6 unit tasks on 2 processors: optimum 3.
	b := dag.NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddNode(1)
	}
	g := b.MustBuild()
	res, err := Schedule(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Closed || res.Length != 3 {
		t.Errorf("independent optimum = %d (closed=%v), want 3", res.Length, res.Closed)
	}
}

func TestKnownOptimaForkJoin(t *testing.T) {
	// root(2) -> 2 middles(4) -> sink(2), comm 1. On 2 processors the
	// optimum is 9: P0 runs root[0,2) m1[2,6); P1 runs m2[3,7) (message
	// from root arrives at 3) and sink[7,9) (m1's message arrives 6+1=7,
	// m2 is local). The serial schedule is 12.
	b := dag.NewBuilder()
	root := b.AddNode(2)
	m1 := b.AddNode(4)
	m2 := b.AddNode(4)
	sink := b.AddNode(2)
	b.AddEdge(root, m1, 1)
	b.AddEdge(root, m2, 1)
	b.AddEdge(m1, sink, 1)
	b.AddEdge(m2, sink, 1)
	g := b.MustBuild()
	res, err := Schedule(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Closed || res.Length != 9 {
		t.Errorf("fork-join optimum = %d (closed=%v), want 9\n%s",
			res.Length, res.Closed, res.Schedule)
	}
}

func TestOptimalNeverWorseThanHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 6+rng.Intn(6), 40)
		res, err := Schedule(g, 3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for name, h := range bnp.Algorithms() {
			hs, err := h(g, 3)
			if err != nil {
				t.Fatal(err)
			}
			if res.Closed && hs.Length() < res.Length {
				t.Fatalf("trial %d: heuristic %s (%d) beat 'optimal' (%d)",
					trial, name, hs.Length(), res.Length)
			}
		}
	}
}

func TestExpansionBudgetTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g := randomGraph(rng, 24, 60)
	res, err := Schedule(g, 4, Options{MaxExpansions: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Closed {
		t.Error("50-expansion search on 24 nodes claims to be closed")
	}
	if res.Schedule == nil || res.Schedule.Validate() != nil {
		t.Error("truncated search must still return the heuristic incumbent")
	}
}

func TestArgumentErrors(t *testing.T) {
	if _, err := Schedule(nil, 2, Options{}); err == nil {
		t.Error("accepted nil graph")
	}
	g := dag.NewBuilder().MustBuild()
	if _, err := Schedule(g, 0, Options{}); err == nil {
		t.Error("accepted zero processors")
	}
	res, err := Schedule(g, 2, Options{})
	if err != nil || !res.Closed || res.Length != 0 {
		t.Errorf("empty graph: %+v, %v", res, err)
	}
}

func TestRGBOSSizedInstanceCloses(t *testing.T) {
	if testing.Short() {
		t.Skip("branch-and-bound on 12 nodes in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 12, 40)
	res, err := Schedule(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Closed {
		t.Errorf("12-node instance did not close within %d expansions", DefaultMaxExpansions)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleDeterministic pins the returned schedule, not only its
// length: when several heuristics tie for the incumbent and the search
// finds nothing shorter, every call must still adopt the same one.
func TestScheduleDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, 5+rng.Intn(4), 40)
		var want string
		for call := 0; call < 12; call++ {
			res, err := Schedule(g, 3, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Schedule.String()
			if call == 0 {
				want = got
			} else if got != want {
				t.Fatalf("trial %d call %d: schedule differs from call 0:\n%s\nvs\n%s",
					trial, call, got, want)
			}
		}
	}
}

func TestCompactKeepsPlacements(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	scattered := 0
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 8+rng.Intn(8), 40)
		d, err := unc.EZ(g)
		if err != nil {
			t.Fatal(err)
		}
		used := d.ProcessorsUsed()
		if len(d.Slots(used-1)) == 0 {
			scattered++ // some task sits on an index >= used
		}
		c := compact(d, used)
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: compacted schedule invalid: %v", trial, err)
		}
		if c.ProcessorsUsed() != used || c.Length() != d.Length() {
			t.Fatalf("trial %d: compact changed procs %d -> %d or length %d -> %d",
				trial, used, c.ProcessorsUsed(), d.Length(), c.Length())
		}
		for v := 0; v < g.NumNodes(); v++ {
			n := dag.NodeID(v)
			if c.StartOf(n) != d.StartOf(n) {
				t.Fatalf("trial %d: node %d moved from %d to %d", trial, n, d.StartOf(n), c.StartOf(n))
			}
		}
		for p := 0; p < d.NumProcs(); p++ {
			slots := d.Slots(p)
			if len(slots) == 0 {
				continue
			}
			got := c.Slots(c.ProcOf(slots[0].Node))
			if len(got) != len(slots) {
				t.Fatalf("trial %d: P%d had %d tasks, its image has %d", trial, p, len(slots), len(got))
			}
			for i := range slots {
				if got[i].Node != slots[i].Node {
					t.Fatalf("trial %d: P%d task %d is %d, its image has %d",
						trial, p, i, slots[i].Node, got[i].Node)
				}
			}
		}
	}
	if scattered == 0 {
		t.Fatal("no EZ schedule used scattered processor indices; the test exercises no remapping")
	}
}

// TestZeroLengthSlotGraph searches n0(0) -> n1(5) with a zero-cost edge,
// where the seeding heuristics (LAST among them) start n1 on the finish
// of n0's zero-length slot.
func TestZeroLengthSlotGraph(t *testing.T) {
	b := dag.NewBuilder()
	n0 := b.AddNode(0)
	n1 := b.AddNode(5)
	b.AddEdge(n0, n1, 0)
	res, err := Schedule(b.MustBuild(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Closed || res.Length != 5 {
		t.Fatalf("optimum = %d (closed=%v), want 5", res.Length, res.Closed)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("invalid optimal schedule: %v", err)
	}
}
