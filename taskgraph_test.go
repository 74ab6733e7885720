package taskgraph

import (
	"bytes"
	"io"
	"sort"
	"strings"
	"testing"
)

func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	a := b.AddLabeledNode(2, "a")
	nb := b.AddLabeledNode(3, "b")
	c := b.AddLabeledNode(4, "c")
	d := b.AddLabeledNode(1, "d")
	b.AddEdge(a, nb, 1)
	b.AddEdge(a, c, 5)
	b.AddEdge(nb, d, 2)
	b.AddEdge(c, d, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicGraphAPI(t *testing.T) {
	g := buildDiamond(t)
	if CriticalPathLength(g) != 15 {
		t.Errorf("CriticalPathLength = %d, want 15", CriticalPathLength(g))
	}
	if Width(g) != 2 {
		t.Errorf("Width = %d, want 2", Width(g))
	}
	cp := CriticalPath(g)
	if len(cp) != 3 {
		t.Errorf("CriticalPath = %v, want 3 nodes", cp)
	}
	lv := ComputeLevels(g)
	if lv.CPLength != 15 {
		t.Errorf("Levels.CPLength = %d", lv.CPLength)
	}
	if !strings.Contains(DOT(g, "x"), "digraph") {
		t.Error("DOT output malformed")
	}
}

func TestPublicGraphRoundTrip(t *testing.T) {
	g := buildDiamond(t)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 4 || back.NumEdges() != 4 {
		t.Error("round trip lost structure")
	}
}

func TestScheduleAllClassesViaFacade(t *testing.T) {
	g := buildDiamond(t)
	for _, name := range AlgorithmNames(BNP) {
		s, err := ScheduleBNP(name, g, 2)
		if err != nil {
			t.Fatalf("BNP %s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("BNP %s: %v", name, err)
		}
	}
	for _, name := range AlgorithmNames(UNC) {
		s, err := ScheduleUNC(name, g)
		if err != nil {
			t.Fatalf("UNC %s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("UNC %s: %v", name, err)
		}
	}
	topo := Hypercube(2)
	for _, name := range AlgorithmNames(APN) {
		s, err := ScheduleAPN(name, g, topo)
		if err != nil {
			t.Fatalf("APN %s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("APN %s: %v", name, err)
		}
	}
}

func TestUnknownAlgorithmNames(t *testing.T) {
	g := buildDiamond(t)
	if _, err := ScheduleBNP("NOPE", g, 2); err == nil {
		t.Error("unknown BNP name accepted")
	}
	if _, err := ScheduleUNC("NOPE", g); err == nil {
		t.Error("unknown UNC name accepted")
	}
	if _, err := ScheduleAPN("NOPE", g, Ring(3)); err == nil {
		t.Error("unknown APN name accepted")
	}
}

func TestScheduleOptimalFacade(t *testing.T) {
	g := buildDiamond(t)
	res, err := ScheduleOptimal(g, 2, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Closed || res.Length != 9 {
		t.Errorf("optimal = %d closed=%v, want 9 proven", res.Length, res.Closed)
	}
}

func TestSuitesViaFacade(t *testing.T) {
	if len(PeerSet()) != 10 {
		t.Error("PeerSet size wrong")
	}
	g, err := Cholesky(6, 1.0)
	if err != nil || g.NumNodes() != 6+15 {
		t.Errorf("Cholesky(6): %d nodes, err %v", g.NumNodes(), err)
	}
	if _, err := GaussianElimination(4, 0.5); err != nil {
		t.Error(err)
	}
	if _, err := FFT(8, 1.0); err != nil {
		t.Error(err)
	}
	if _, err := NewTopology(2, [][2]int{{0, 1}}); err != nil {
		t.Error(err)
	}
	if _, err := LU(4, 1.0); err != nil {
		t.Error(err)
	}
}

func TestGeneratorRegistryFacade(t *testing.T) {
	gens := Generators()
	if len(gens) < 11 {
		t.Fatalf("Generators() returned %d families, want >= 11", len(gens))
	}
	for _, g := range gens {
		if g.Name == "" || g.Doc == "" || len(g.Params) == 0 {
			t.Errorf("generator %+v missing name, doc, or params", g.Name)
		}
	}
	g, err := Generate("faninout", 42, GeneratorParams{"v": "25", "ccr": "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 25 {
		t.Errorf("faninout v=25 produced %d nodes", g.NumNodes())
	}
	h, err := Generate("faninout", 42, GeneratorParams{"v": "25", "ccr": "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteGraph(&a, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteGraph(&b, h); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("Generate is not deterministic through the facade")
	}
	if _, err := Generate("nope", 1, nil); err == nil {
		t.Error("unknown generator accepted")
	}
}

func TestExperimentIDsFacade(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 17 {
		t.Fatalf("ExperimentIDs = %v, want 17 entries", ids)
	}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range []string{"genx", "robust", "components", "adversarial", "faults", "scaling"} {
		if !have[id] {
			t.Errorf("ExperimentIDs missing %s: %v", id, ids)
		}
	}
	var sink bytes.Buffer
	if err := RunExperiment("table1", ExperimentConfig{Seed: 1, Scale: Quick, Out: &sink}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sink.String(), "kwok-ahmad-9") {
		t.Error("table1 output missing PSG rows")
	}
}

func TestFacadeExtensions(t *testing.T) {
	g := buildDiamond(t)
	d, err := ScheduleDSH(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	clustering, err := ScheduleUNC("DSC", g)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"SARKAR", "RCP"} {
		mapped, err := MapClusters(m, clustering, 2)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if err := mapped.Validate(); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
	if _, err := MapClusters("NOPE", clustering, 2); err == nil {
		t.Error("unknown mapper accepted")
	}
	st := ComputeStats(g)
	if st.Nodes != 4 {
		t.Errorf("stats = %+v", st)
	}
	r, err := TransitiveReduction(g)
	if err != nil || r.NumEdges() != 4 {
		t.Errorf("reduction: %v", err)
	}
	var buf bytes.Buffer
	s, err := ScheduleBNP("MCP", g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Gantt(&buf, s, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "P0") {
		t.Error("Gantt output missing rows")
	}
	if Torus(3, 3).NumProcs() != 9 || BinaryTree(2).NumProcs() != 3 {
		t.Error("extra topologies wrong")
	}
}

func TestSimulationFacade(t *testing.T) {
	g := buildDiamond(t)
	s, err := ScheduleBNP("MCP", g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Unperturbed timetable execution replays the schedule exactly.
	res, err := Simulate(s, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Static != s.Makespan() || res.Makespan != res.Static || res.Ratio != 1 {
		t.Errorf("zero-variance Simulate = %+v, static %d", res, s.Makespan())
	}
	plan, err := CompileSim(s)
	if err != nil {
		t.Fatal(err)
	}
	opts := SimOptions{
		Perturb: SimPerturbation{Dist: DistLognormal, TaskSpread: 0.3, CommSpread: 0.3},
		Policy:  PolicyTimetable,
		Seed:    1,
	}
	st, err := SimMonteCarlo(plan, opts, 50)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trials != 50 || st.Static != res.Static || st.MeanRatio < 1 {
		t.Errorf("SimMonteCarlo stats = %+v", st)
	}
	st2, err := SimMonteCarlo(plan, opts, 50)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanMakespan != st2.MeanMakespan {
		t.Error("SimMonteCarlo not reproducible")
	}

	as, err := ScheduleAPN("MH", g, Hypercube(2))
	if err != nil {
		t.Fatal(err)
	}
	ares, err := SimulateAPN(as, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ares.Makespan != as.Makespan() {
		t.Errorf("zero-variance SimulateAPN = %+v, static %d", ares, as.Makespan())
	}
	if _, err := CompileSimAPN(as); err != nil {
		t.Fatal(err)
	}
}

// TestFaultFacade pins the fault-injection re-exports: compilation,
// the zero-fault anchor, a crashy Monte-Carlo run under each recovery
// policy constructor, and the APN compile path.
func TestFaultFacade(t *testing.T) {
	if names := RecoveryPolicyNames(); len(names) != 4 {
		t.Errorf("RecoveryPolicyNames = %v, want 4 policies", names)
	}
	g := buildDiamond(t)
	s, err := ScheduleBNP("MCP", g, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, err := CompileFaults(s)
	if err != nil {
		t.Fatal(err)
	}
	// No faults: every trial replays the static schedule exactly.
	st, err := FaultMonteCarlo(x, FaultOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Static != s.Makespan() || st.SurvivalRate != 1 || st.MeanRatio != 1 || st.MeanCrashes != 0 {
		t.Errorf("zero-fault FaultMonteCarlo stats = %+v, static %d", st, s.Makespan())
	}
	// A harsh fault model with each recovery policy; runs must be
	// reproducible and the accounting sane.
	static := s.Makespan()
	for _, pol := range []RecoveryPolicy{
		RecoveryNone(), RecoveryResubmit(), RecoveryCheckpoint(static / 4), RecoveryReplicate(2),
	} {
		opts := FaultOptions{
			Sim:      SimOptions{Seed: 7},
			Faults:   FaultModel{MTBF: static / 2, MeanRepair: static / 8},
			Recovery: pol,
			Deadline: 2 * static,
		}
		st1, err := FaultMonteCarlo(x, opts, 10)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		st2, err := FaultMonteCarlo(x, opts, 10)
		if err != nil {
			t.Fatal(err)
		}
		if st1.Survived != st2.Survived || st1.MeanRatio != st2.MeanRatio {
			t.Errorf("%s: FaultMonteCarlo not reproducible", pol.Name())
		}
		if st1.Survived > st1.Finished || st1.Finished > st1.Trials {
			t.Errorf("%s: inconsistent counts %+v", pol.Name(), st1)
		}
	}

	as, err := ScheduleAPN("MH", g, Hypercube(2))
	if err != nil {
		t.Fatal(err)
	}
	ax, err := CompileFaultsAPN(as)
	if err != nil {
		t.Fatal(err)
	}
	ast, err := FaultMonteCarlo(ax, FaultOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ast.Static != as.Makespan() || ast.MeanRatio != 1 {
		t.Errorf("zero-fault APN FaultMonteCarlo stats = %+v, static %d", ast, as.Makespan())
	}
}

// TestAdversarialFacade pins the adversarial re-exports: pair parsing,
// a tiny search through the real evaluator, edge perturbation, and the
// fixture archive round trip.
func TestAdversarialFacade(t *testing.T) {
	if _, _, err := ParseAlgorithmPair("MCP:NOPE"); err == nil {
		t.Error("ParseAlgorithmPair accepted an unknown algorithm")
	}
	names := AlgorithmPairNames()
	if len(names) == 0 || !sort.StringsAreSorted(names) {
		t.Errorf("AlgorithmPairNames = %v, want a sorted non-empty list", names)
	}

	opts := AdversarialDefaults(11)
	opts.Generations = 2
	opts.Population = 6
	cfg := ExperimentConfig{Seed: 11, Scale: Quick, Out: io.Discard, Workers: 2}
	rep, err := AdversarialSearch(cfg, opts, "MCP", "LAST")
	if err != nil {
		t.Fatal(err)
	}
	if rep.AlgA != "MCP" || rep.AlgB != "LAST" || len(rep.Trace) != 2 {
		t.Errorf("report = pair %s:%s, %d trace entries", rep.AlgA, rep.AlgB, len(rep.Trace))
	}

	g := buildDiamond(t)
	perturbed, err := PerturbEdges(g, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if perturbed.NumNodes() != g.NumNodes() || perturbed.NumEdges() != g.NumEdges() {
		t.Error("PerturbEdges changed the graph structure")
	}

	dir := t.TempDir()
	paths, err := ArchiveAdversarial(dir, rep, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	fixtures, err := LoadAdversarialFixtures(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) != len(paths) {
		t.Errorf("archived %d fixtures, loaded %d", len(paths), len(fixtures))
	}
}
