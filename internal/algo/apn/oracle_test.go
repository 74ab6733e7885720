package apn

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/machine"
)

// The oracles below are the whole-replay BSA loop and the exhaustive
// APN DLS and MH scans the pruned kernels replaced. They survive only as
// the references the pruned kernels are pinned to.

// oracleReplay replays per-processor sequences with the exhaustive head
// scan: every eligible head's messages are routed at every step.
func oracleReplay(g *dag.Graph, topo *machine.Topology, seqs [][]dag.NodeID, speeds []float64) (*machine.Schedule, error) {
	s, err := newSchedule(g, topo, speeds)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(seqs))
	for s.Placed() < g.NumNodes() {
		bestProc := -1
		var bestEST int64
		var bestNode dag.NodeID
		for p, q := range seqs {
			if idx[p] >= len(q) {
				continue
			}
			n := q[idx[p]]
			est, ok := s.ESTOn(n, p, false)
			if !ok {
				continue
			}
			if bestProc == -1 || est < bestEST || (est == bestEST && n < bestNode) {
				bestProc, bestEST, bestNode = p, est, n
			}
		}
		if bestProc == -1 {
			return nil, fmt.Errorf("oracle replay: deadlock after %d placements", s.Placed())
		}
		s.MustPlace(bestNode, bestProc, bestEST)
		idx[bestProc]++
	}
	return s, nil
}

// moveNode returns a copy of seqs with n moved from processor from to
// processor to, inserted by CPN-dominant rank.
func moveNode(seqs [][]dag.NodeID, n dag.NodeID, from, to int, rank []int) [][]dag.NodeID {
	out := make([][]dag.NodeID, len(seqs))
	for i := range seqs {
		switch i {
		case from:
			for _, m := range seqs[i] {
				if m != n {
					out[i] = append(out[i], m)
				}
			}
		case to:
			inserted := false
			for _, m := range seqs[i] {
				if !inserted && rank[n] < rank[m] {
					out[i] = append(out[i], n)
					inserted = true
				}
				out[i] = append(out[i], m)
			}
			if !inserted {
				out[i] = append(out[i], n)
			}
		default:
			out[i] = append([]dag.NodeID(nil), seqs[i]...)
		}
	}
	return out
}

// oracleBSA is BSA evaluating every candidate migration with a
// whole-schedule replay of the moved sequences.
func oracleBSA(g *dag.Graph, topo *machine.Topology, speeds []float64) (*machine.Schedule, error) {
	if g.NumNodes() == 0 {
		return newSchedule(g, topo, speeds)
	}
	order := cpnDominantOrder(g)
	rank := make([]int, g.NumNodes())
	for i, n := range order {
		rank[n] = i
	}
	pivot := bestConnectedProc(topo)
	seqs := make([][]dag.NodeID, topo.NumProcs())
	seqs[pivot] = append([]dag.NodeID(nil), order...)
	s, err := oracleReplay(g, topo, seqs, speeds)
	if err != nil {
		return nil, err
	}
	for _, p := range bfsProcs(topo, pivot) {
		resident := append([]dag.NodeID(nil), seqs[p]...)
		for _, n := range resident {
			if s.ProcOf(n) != p {
				continue
			}
			bestProc := -1
			bestEst := s.StartOf(n)
			for _, nb := range topo.Neighbors(p) {
				est, ok := s.ESTOn(n, int(nb), true)
				if ok && est < bestEst {
					bestEst, bestProc = est, int(nb)
				}
			}
			if bestProc < 0 {
				continue
			}
			candidate := moveNode(seqs, n, p, bestProc, rank)
			ns, err := oracleReplay(g, topo, candidate, speeds)
			if err != nil || ns.StartOf(n) >= s.StartOf(n) || ns.Length() > s.Length() {
				continue
			}
			seqs, s = candidate, ns
		}
	}
	return s, nil
}

// oracleDLS is APN DLS routing the messages of every (ready node,
// processor) pair at every step.
func oracleDLS(g *dag.Graph, topo *machine.Topology, speeds []float64) (*machine.Schedule, error) {
	sl := dag.StaticLevels(g)
	s, err := newSchedule(g, topo, speeds)
	if err != nil {
		return nil, err
	}
	ready := algo.NewReadySet(g)
	for !ready.Empty() {
		bestNode := dag.None
		bestProc := -1
		var bestDL, bestEST int64
		for _, n := range ready.Ready() {
			for p := 0; p < topo.NumProcs(); p++ {
				est, ok := s.ESTOn(n, p, false)
				if !ok {
					return nil, fmt.Errorf("oracle DLS: ready node %d has an unscheduled parent", n)
				}
				dl := sl[n] - est
				if bestNode == dag.None || dl > bestDL ||
					(dl == bestDL && (n < bestNode || (n == bestNode && p < bestProc))) {
					bestNode, bestProc, bestDL, bestEST = n, p, dl, est
				}
			}
		}
		ready.Pop(bestNode)
		s.MustPlace(bestNode, bestProc, bestEST)
		ready.MarkScheduled(g, bestNode)
	}
	return s, nil
}

// oracleMH is MH routing the messages of every processor for each
// node, ties toward the lower processor.
func oracleMH(g *dag.Graph, topo *machine.Topology, speeds []float64) (*machine.Schedule, error) {
	s, err := newSchedule(g, topo, speeds)
	if err != nil {
		return nil, err
	}
	for _, n := range algo.PriorityOrder(g, dag.StaticLevels(g)) {
		bestProc := -1
		var bestEST int64
		for p := 0; p < topo.NumProcs(); p++ {
			est, ok := s.ESTOn(n, p, false)
			if !ok {
				return nil, fmt.Errorf("oracle MH: node %d has an unscheduled parent", n)
			}
			if bestProc == -1 || est < bestEST {
				bestProc, bestEST = p, est
			}
		}
		s.MustPlace(n, bestProc, bestEST)
	}
	return s, nil
}

// oracleBU is BU with its sequences replayed by the exhaustive scan.
func oracleBU(g *dag.Graph, topo *machine.Topology, speeds []float64) (*machine.Schedule, error) {
	if g.NumNodes() == 0 {
		return newSchedule(g, topo, speeds)
	}
	return oracleReplay(g, topo, buSequences(g, topo), speeds)
}

// prunedCases pairs each pruned kernel with its oracle.
var prunedCases = []struct {
	name   string
	run    func(*dag.Graph, *machine.Topology, []float64) (*machine.Schedule, error)
	oracle func(*dag.Graph, *machine.Topology, []float64) (*machine.Schedule, error)
}{
	{"BSA", runBSA, oracleBSA},
	{"DLS", runDLS, oracleDLS},
	{"BU", runBU, oracleBU},
	{"MH", runMH, oracleMH},
}

// hopsOf lists the committed link reservations of edge (u, v).
func hopsOf(s *machine.Schedule, u, v dag.NodeID) []machine.LinkHop {
	var hops []machine.LinkHop
	s.EachMessageHop(u, v, func(h machine.LinkHop) { hops = append(hops, h) })
	return hops
}

// assertSameSchedule requires equal processor, start and finish for
// every node and equal link reservations for every edge.
func assertSameSchedule(t *testing.T, label string, g *dag.Graph, got, want *machine.Schedule) {
	t.Helper()
	for v := 0; v < g.NumNodes(); v++ {
		n := dag.NodeID(v)
		if got.ProcOf(n) != want.ProcOf(n) || got.StartOf(n) != want.StartOf(n) || got.FinishOf(n) != want.FinishOf(n) {
			t.Fatalf("%s: node %d on P%d [%d,%d), oracle P%d [%d,%d)", label, n,
				got.ProcOf(n), got.StartOf(n), got.FinishOf(n),
				want.ProcOf(n), want.StartOf(n), want.FinishOf(n))
		}
		for _, a := range g.Succs(n) {
			if gh, wh := hopsOf(got, n, a.To), hopsOf(want, n, a.To); !slices.Equal(gh, wh) {
				t.Fatalf("%s: edge (%d,%d) hops %v, oracle %v", label, n, a.To, gh, wh)
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// assertPrunedMatchOracles runs every pruned kernel and its oracle on g.
func assertPrunedMatchOracles(t *testing.T, label string, g *dag.Graph, topo *machine.Topology, speeds []float64) {
	t.Helper()
	for _, c := range prunedCases {
		got, err := c.run(g, topo, speeds)
		if err != nil {
			t.Fatalf("%s %s: %v", label, c.name, err)
		}
		want, err := c.oracle(g, topo, speeds)
		if err != nil {
			t.Fatalf("%s %s oracle: %v", label, c.name, err)
		}
		assertSameSchedule(t, fmt.Sprintf("%s %s", label, c.name), g, got, want)
	}
}

// oracleTopologies covers every topology family the kernels meet.
func oracleTopologies() []*machine.Topology {
	return []*machine.Topology{
		machine.Ring(5),
		machine.Hypercube(3),
		machine.Mesh(2, 3),
		machine.Star(5),
		machine.Chain(4),
		machine.Clique(4),
		machine.Torus(3, 3),
	}
}

// randomSpeeds draws one speed factor in [0.5, 3) per processor.
func randomSpeeds(rng *rand.Rand, procs int) []float64 {
	sp := make([]float64, procs)
	for p := range sp {
		sp[p] = 0.5 + 2.5*rng.Float64()
	}
	return sp
}

// randomOracleGraph draws a DAG of 1 to 24 nodes whose weights include
// zero, as do its edge costs.
func randomOracleGraph(rng *rand.Rand) *dag.Graph {
	n := 1 + rng.Intn(24)
	commScale := 1 + rng.Int63n(60)
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		w := 1 + rng.Int63n(25)
		if rng.Intn(8) == 0 {
			w = 0
		}
		b.AddNode(w)
	}
	density := 2 + rng.Intn(5)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(density) == 0 {
				b.AddEdge(dag.NodeID(i), dag.NodeID(j), rng.Int63n(commScale))
			}
		}
	}
	return b.MustBuild()
}

func TestPrunedAPNMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	topos := oracleTopologies()
	for i := 0; i < 300; i++ {
		g := randomOracleGraph(rng)
		for _, topo := range topos {
			label := fmt.Sprintf("graph %d (v=%d, e=%d) on %s", i, g.NumNodes(), g.NumEdges(), topo.Name())
			assertPrunedMatchOracles(t, label, g, topo, nil)
			assertPrunedMatchOracles(t, label+" with speeds", g, topo, randomSpeeds(rng, topo.NumProcs()))
		}
	}
}

// decodeAPNCase builds a DAG of at most 24 nodes, a topology and an
// optional speed vector from arbitrary bytes. The first byte picks the
// node count, the second the topology, the third whether speeds are
// used (and seeds them); then one byte per node weight (0 to 4) and
// every following triple (i, j, c) an edge between nodes i and j,
// oriented from the smaller index, with cost c mod 16. Self-loops and
// repeated pairs are dropped. It returns nil for inputs under three
// bytes.
func decodeAPNCase(data []byte) (*dag.Graph, *machine.Topology, []float64) {
	if len(data) < 3 {
		return nil, nil, nil
	}
	n := int(data[0])%24 + 1
	topos := oracleTopologies()
	topo := topos[int(data[1])%len(topos)]
	var speeds []float64
	if data[2]%2 == 1 {
		speeds = randomSpeeds(rand.New(rand.NewSource(int64(data[2]))), topo.NumProcs())
	}
	data = data[3:]
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		var w int64
		if i < len(data) {
			w = int64(data[i] % 5)
		}
		b.AddNode(w)
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
	return b.MustBuild(), topo, speeds
}

func FuzzAPNPruned(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 1, 0, 1, 5})
	f.Add([]byte{7, 1, 1, 2, 0, 3, 1, 4, 2, 1, 0, 1, 9, 0, 2, 0, 1, 3, 4, 15, 2, 5, 7, 4, 6, 2, 3, 6, 1})
	f.Add([]byte{23, 6, 3, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2,
		0, 5, 3, 1, 7, 0, 2, 9, 8, 5, 12, 4, 3, 20, 11, 6, 22, 1, 10, 15, 6, 14, 18, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, topo, speeds := decodeAPNCase(data); g != nil {
			assertPrunedMatchOracles(t, fmt.Sprintf("fuzz case %x on %s", data, topo.Name()), g, topo, speeds)
		}
	})
}
