package cs

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/algo"
	"repro/internal/algo/bnp"
	"repro/internal/algo/unc"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/sched"
)

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

func TestMappersRegistry(t *testing.T) {
	m := Mappers()
	if len(m) != 2 || m["SARKAR"] == nil || m["RCP"] == nil {
		t.Fatalf("registry = %v, want SARKAR and RCP", m)
	}
}

func TestMappedSchedulesAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 5+rng.Intn(30), 60)
		clustering, err := unc.DCP(g)
		if err != nil {
			t.Fatal(err)
		}
		for name, mapper := range Mappers() {
			for _, p := range []int{1, 2, 4} {
				s, err := mapper(clustering, p)
				if err != nil {
					t.Fatalf("%s p=%d: %v", name, p, err)
				}
				if !s.Complete() {
					t.Fatalf("%s p=%d: incomplete", name, p)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("%s p=%d: %v", name, p, err)
				}
				if s.ProcessorsUsed() > p {
					t.Fatalf("%s used %d of %d processors", name, s.ProcessorsUsed(), p)
				}
			}
		}
	}
}

func TestMappersRespectBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 20, 40)
	clustering, err := unc.DSC(g) // DSC produces many clusters
	if err != nil {
		t.Fatal(err)
	}
	if clustering.ProcessorsUsed() <= 2 {
		t.Skip("clustering too small to compress")
	}
	for name, mapper := range Mappers() {
		s, err := mapper(clustering, 2)
		if err != nil {
			t.Fatal(err)
		}
		if s.ProcessorsUsed() > 2 {
			t.Errorf("%s: %d clusters forced onto 2 procs but used %d",
				name, clustering.ProcessorsUsed(), s.ProcessorsUsed())
		}
	}
}

func TestMappersErrors(t *testing.T) {
	g := dag.NewBuilder()
	g.AddNode(1)
	clustering, err := unc.LC(g.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	for name, mapper := range Mappers() {
		if _, err := mapper(clustering, 0); err == nil {
			t.Errorf("%s accepted zero processors", name)
		}
	}
}

// TestRCPBalancesLoad: with independent equal clusters RCP's wrap
// mapping must spread them evenly.
func TestRCPBalancesLoad(t *testing.T) {
	b := dag.NewBuilder()
	for i := 0; i < 8; i++ {
		b.AddNode(5)
	}
	g := b.MustBuild()
	clustering, err := unc.DCP(g) // independent tasks: 8 singleton clusters
	if err != nil {
		t.Fatal(err)
	}
	s, err := RCP(clustering, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Length() != 10 {
		t.Errorf("RCP length = %d, want 10 (2 tasks per processor)", s.Length())
	}
}

// TestRCPWeighsMachineSpeeds maps four independent weight-10 tasks,
// clustered on speeds [0.1, 1, 1, 1], onto the first two processors:
// every task takes 100 on the slow one and 10 on the other, so RCP must
// put all four on processor 1 for length 40, as Sarkar does, not split
// them by raw work (length 200).
func TestRCPWeighsMachineSpeeds(t *testing.T) {
	b := dag.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode(10)
	}
	clustering, err := unc.ScheduleHet("DCP", b.MustBuild(), []float64{0.1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer clustering.Release()
	for name, mapper := range Mappers() {
		s, err := mapper(clustering, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if s.Length() != 40 {
			t.Errorf("%s length %d, want 40", name, s.Length())
		}
		s.Release()
	}
}

// TestUNCCSCompetitiveWithBNP runs the comparison the paper poses as
// future work: DCP+Sarkar on p processors versus MCP on p processors.
// We only assert sanity (within 2x of each other in aggregate), not a
// winner — that is the experiment's job.
func TestUNCCSCompetitiveWithBNP(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var csTotal, bnpTotal int64
	for i := 0; i < 8; i++ {
		g := randomGraph(rng, 25, 50)
		clustering, err := unc.DCP(g)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := Sarkar(clustering, 4)
		if err != nil {
			t.Fatal(err)
		}
		m, err := bnp.MCP(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		csTotal += mapped.Length()
		bnpTotal += m.Length()
	}
	if csTotal > 2*bnpTotal {
		t.Errorf("UNC+CS total %d far above BNP total %d", csTotal, bnpTotal)
	}
	if bnpTotal > 2*csTotal {
		t.Errorf("BNP total %d far above UNC+CS total %d", bnpTotal, csTotal)
	}
}

// partialLength estimates the schedule length of the already-mapped
// nodes by list-scheduling the induced subgraph in the b-level order bl.
func partialLength(g *dag.Graph, bl []int64, proc []int, mapped []dag.NodeID, numProcs int) int64 {
	inSet := make([]bool, g.NumNodes())
	for _, n := range mapped {
		inSet[n] = true
	}
	order := append([]dag.NodeID(nil), mapped...)
	sort.SliceStable(order, func(i, j int) bool {
		if bl[order[i]] != bl[order[j]] {
			return bl[order[i]] > bl[order[j]]
		}
		return order[i] < order[j]
	})
	out := sched.Acquire(g, numProcs)
	// Place in b-level order, skipping dependencies outside the mapped
	// set (their data is treated as available at time 0).
	for _, n := range order {
		drt := int64(0)
		for _, pr := range g.Preds(n) {
			if !inSet[pr.To] {
				continue
			}
			arrival := out.FinishOf(pr.To)
			if out.ProcOf(pr.To) != proc[n] {
				arrival += pr.Weight
			}
			if arrival > drt {
				drt = arrival
			}
		}
		// Manual placement on the pinned processor, after its last task
		// (no gap search).
		out.MustPlace(n, proc[n], max(drt, out.LastFinish(proc[n])))
	}
	l := out.Length()
	out.Release() // trial schedule: only its length is used
	return l
}

// oracleSarkar is Sarkar's assignment algorithm scoring every try with
// partialLength, the estimate the cluster-timing kernel replaced: a
// sorted copy of the mapped set placed on a fresh schedule per try. It
// is the reference for homogeneous clusterings.
func oracleSarkar(s *sched.Schedule, numProcs int) *sched.Schedule {
	g := s.Graph()
	clusters := clustersOf(s)
	bl := dag.BLevels(g)
	sort.SliceStable(clusters, func(i, j int) bool {
		return maxBL(bl, clusters[i]) > maxBL(bl, clusters[j])
	})
	proc := make([]int, g.NumNodes())
	for i := range proc {
		proc[i] = -1
	}
	mapped := make([]dag.NodeID, 0, g.NumNodes())
	for _, cluster := range clusters {
		bestProc := -1
		var bestLen int64
		for p := 0; p < numProcs; p++ {
			for _, n := range cluster {
				proc[n] = p
			}
			l := partialLength(g, bl, proc, append(mapped, cluster...), numProcs)
			if bestProc == -1 || l < bestLen {
				bestProc, bestLen = p, l
			}
		}
		for _, n := range cluster {
			proc[n] = bestProc
		}
		mapped = append(mapped, cluster...)
	}
	out, err := scheduleMapped(g, algo.PriorityOrder(g, bl), proc, numProcs, nil)
	if err != nil {
		panic(err)
	}
	return out
}

// TestSarkarMatchesPartialLengthOracle pins Sarkar to the mappings
// chosen through partialLength: with positive node weights the b-level
// falls strictly along every edge, so the kernel's order restricted to
// the mapped set is partialLength's sorted order.
func TestSarkarMatchesPartialLengthOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3101))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, 2+rng.Intn(30), 1+rng.Int63n(80))
		for _, u := range unc.Names() {
			clustering, err := unc.ScheduleHet(u, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 2, 4, 8} {
				got, err := Sarkar(clustering, p)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleSarkar(clustering, p)
				if got.String() != want.String() {
					t.Fatalf("graph %d, %s, p=%d: Sarkar\n%v\noracle\n%v", trial, u, p, got, want)
				}
				got.Release()
				want.Release()
			}
			clustering.Release()
		}
	}
}

// TestMappersKeepClusteringSpeeds maps a heterogeneous clustering: the
// physical machine is the clustering's own first numProcs processors,
// so the mapped schedule carries that speed prefix, and asking for more
// processors than the clustering has speeds for is an error.
func TestMappersKeepClusteringSpeeds(t *testing.T) {
	g := gen.RGNOSGraph(rand.New(rand.NewSource(48)), 20, 1, 1)
	speeds := slices.Repeat([]float64{0.25}, g.NumNodes())
	clustering, err := unc.ScheduleHet("DSC", g, speeds)
	if err != nil {
		t.Fatal(err)
	}
	defer clustering.Release()
	for name, mapper := range Mappers() {
		s, err := mapper(clustering, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(s.Speeds(), speeds[:4]) {
			t.Errorf("%s: mapped speeds %v, want %v", name, s.Speeds(), speeds[:4])
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		s.Release()
		if _, err := mapper(clustering, clustering.NumProcs()+1); err == nil {
			t.Errorf("%s accepted %d processors for a clustering with %d speed factors",
				name, clustering.NumProcs()+1, clustering.NumProcs())
		}
	}
}
