package adversarial

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dag"
)

// toyEvaluator is a cheap deterministic stand-in for the scheduling
// pair: lenA is the serial makespan (sum of node weights), lenB the
// same minus a third — so every valid instance has a positive gap and
// the search machinery can be exercised without internal/core.
func toyEvaluator(graphs []*dag.Graph) ([][2]int64, error) {
	out := make([][2]int64, len(graphs))
	for i, g := range graphs {
		var total int64
		for v := 0; v < g.NumNodes(); v++ {
			total += g.Weight(dag.NodeID(v))
		}
		if total < 3 {
			total = 3
		}
		out[i] = [2]int64{total, total - total/3}
	}
	return out, nil
}

// renderReport flattens a report into a comparable string: the full
// trace plus the top candidate keys and scores.
func renderReport(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "objective=%s\n", rep.Objective)
	for _, s := range rep.Trace {
		fmt.Fprintf(&b, "gen=%d best=%.9f mean=%.9f invalid=%d key=%s\n",
			s.Gen, s.Best, s.Mean, s.Invalid, s.BestKey)
	}
	for i, f := range rep.Top {
		fmt.Fprintf(&b, "top[%d] score=%.9f lens=%d/%d key=%s\n",
			i, f.Score, f.LenA, f.LenB, f.Key())
	}
	return b.String()
}

// TestSearchIsDeterministic pins the core reproducibility contract:
// equal seeds and options yield byte-identical trajectories and top
// lists.
func TestSearchIsDeterministic(t *testing.T) {
	run := func() string {
		rep, err := Search(Defaults(1998), toyEvaluator)
		if err != nil {
			t.Fatal(err)
		}
		return renderReport(rep)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identically seeded searches diverged:\n--- first\n%s--- second\n%s", a, b)
	}
	other, err := Search(Defaults(2024), toyEvaluator)
	if err != nil {
		t.Fatal(err)
	}
	if renderReport(other) == a {
		t.Error("different seeds produced identical trajectories")
	}
}

// TestSearchReportShape checks the structural invariants of a run:
// full trace, sorted distinct top list, populated fields.
func TestSearchReportShape(t *testing.T) {
	opts := Defaults(7)
	opts.Generations = 5
	opts.TopK = 4
	rep, err := Search(opts, toyEvaluator)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trace) != opts.Generations {
		t.Fatalf("trace has %d entries, want %d", len(rep.Trace), opts.Generations)
	}
	for i, s := range rep.Trace {
		if s.Gen != i {
			t.Errorf("trace[%d].Gen = %d", i, s.Gen)
		}
		if s.BestKey == "" {
			t.Errorf("trace[%d] has no best key", i)
		}
	}
	if len(rep.Top) == 0 || len(rep.Top) > opts.TopK {
		t.Fatalf("top list has %d entries, want 1..%d", len(rep.Top), opts.TopK)
	}
	seen := map[string]bool{}
	for i, f := range rep.Top {
		if i > 0 && f.Score > rep.Top[i-1].Score {
			t.Errorf("top list not sorted: [%d]=%g > [%d]=%g", i, f.Score, i-1, rep.Top[i-1].Score)
		}
		if f.Graph == nil {
			t.Errorf("top[%d] carries no graph", i)
		}
		if seen[f.Key()] {
			t.Errorf("top[%d] duplicates key %s", i, f.Key())
		}
		seen[f.Key()] = true
	}
}

// TestSearchOptionValidation pins the fail-fast errors for unusable
// configurations.
func TestSearchOptionValidation(t *testing.T) {
	if _, err := Search(Defaults(1), nil); err == nil {
		t.Error("nil evaluator accepted")
	}
	bad := Defaults(1)
	bad.Families = []string{"nope"}
	if _, err := Search(bad, toyEvaluator); err == nil {
		t.Error("unknown family accepted")
	}
	bad = Defaults(1)
	bad.Families = []string{"gauss"} // registered but not a random family
	if _, err := Search(bad, toyEvaluator); err == nil {
		t.Error("non-random family accepted")
	}
	bad = Defaults(1)
	bad.Generations = 0
	if _, err := Search(bad, toyEvaluator); err == nil {
		t.Error("zero generations accepted")
	}
	bad = Defaults(1)
	bad.MinNodes, bad.MaxNodes = 30, 20
	if _, err := Search(bad, toyEvaluator); err == nil {
		t.Error("inverted node range accepted")
	}
	bad = Defaults(1)
	bad.MaxPerturb = 1.5
	if _, err := Search(bad, toyEvaluator); err == nil {
		t.Error("out-of-range MaxPerturb accepted")
	}
}

// TestSearchRespectsNodeRange checks every candidate the search reports
// stayed inside the configured size window.
func TestSearchRespectsNodeRange(t *testing.T) {
	opts := Defaults(3)
	opts.MinNodes, opts.MaxNodes = 10, 24
	rep, err := Search(opts, toyEvaluator)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Top {
		n := f.Graph.NumNodes()
		if n < opts.MinNodes || n > opts.MaxNodes {
			t.Errorf("top candidate %s has %d nodes, want %d..%d",
				f.Key(), n, opts.MinNodes, opts.MaxNodes)
		}
	}
}

// TestEvaluatePopulationInvalid pins that in-schema yet
// family-rejected candidates die with a -Inf score and are counted in
// the trace, not treated as errors.
func TestEvaluatePopulationInvalid(t *testing.T) {
	pop := []Candidate{
		{Family: "erdos", Params: map[string]string{"v": "8", "ccr": "1"}, Seed: 1},
		// layered cannot connect a single-layer multi-node graph.
		{Family: "layered", Params: map[string]string{"v": "8", "ccr": "1", "layers": "1", "connect": "true"}, Seed: 2},
	}
	scored, stats, err := evaluatePopulation(pop, nil, GapObjective{}, toyEvaluator)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Invalid != 1 {
		t.Errorf("Invalid = %d, want 1", stats.Invalid)
	}
	if scored[0].Graph == nil || math.IsInf(scored[0].Score, -1) {
		t.Error("valid candidate was not scored")
	}
	if scored[1].Graph != nil || !math.IsInf(scored[1].Score, -1) {
		t.Errorf("invalid candidate kept graph=%v score=%g", scored[1].Graph, scored[1].Score)
	}
}

// TestEvaluatorLengthMismatch pins the defensive check on evaluator
// results.
func TestEvaluatorLengthMismatch(t *testing.T) {
	short := func(graphs []*dag.Graph) ([][2]int64, error) {
		return make([][2]int64, len(graphs)-1), nil
	}
	if _, err := Search(Defaults(1), short); err == nil {
		t.Error("mismatched evaluator result length accepted")
	}
}

// TestObjectives pins the gap objective's scoring rule.
func TestObjectives(t *testing.T) {
	if got := (GapObjective{}).Score(150, 100); got != 0.5 {
		t.Errorf("gap(150,100) = %g, want 0.5", got)
	}
	if got := (GapObjective{}).Score(100, 150); got != -1.0/3 {
		t.Errorf("gap(100,150) = %g", got)
	}
	if got := (GapObjective{}).Score(10, 0); got != 0 {
		t.Errorf("gap with zero lenB = %g, want 0", got)
	}
}

// TestPerturbEdges pins the perturbation's determinism, structure
// preservation, and input validation.
func TestPerturbEdges(t *testing.T) {
	b := dag.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode(int64(10 * (i + 1)))
	}
	b.AddEdge(0, 1, 100)
	b.AddEdge(0, 2, 100)
	b.AddEdge(1, 3, 100)
	b.AddEdge(2, 3, 100)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	if same, err := PerturbEdges(g, 5, 0); err != nil || same != g {
		t.Errorf("zero spread must return the input unchanged (got %p, %v)", same, err)
	}
	for _, spread := range []float64{-0.1, 1, 2} {
		if _, err := PerturbEdges(g, 5, spread); err == nil {
			t.Errorf("spread %g accepted", spread)
		}
	}

	render := func(g *dag.Graph) string {
		var buf bytes.Buffer
		if err := dag.WriteText(&buf, g); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	p1, err := PerturbEdges(g, 9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PerturbEdges(g, 9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if render(p1) != render(p2) {
		t.Error("equal (seed, spread) produced different perturbations")
	}
	if render(p1) == render(g) {
		t.Error("perturbation left every edge weight unchanged")
	}
	p3, err := PerturbEdges(g, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if render(p3) == render(p1) {
		t.Error("different seeds produced identical perturbations")
	}

	if p1.NumNodes() != g.NumNodes() || p1.NumEdges() != g.NumEdges() {
		t.Fatal("perturbation changed graph size")
	}
	for v := 0; v < g.NumNodes(); v++ {
		if p1.Weight(dag.NodeID(v)) != g.Weight(dag.NodeID(v)) {
			t.Errorf("node %d weight changed", v)
		}
		for _, a := range p1.Succs(dag.NodeID(v)) {
			if a.Weight < 1 {
				t.Errorf("edge %d->%d perturbed below 1: %d", v, a.To, a.Weight)
			}
		}
	}
}

// TestFixtureRoundTrip pins the fixture serialization format.
func TestFixtureRoundTrip(t *testing.T) {
	b := dag.NewBuilder()
	b.AddLabeledNode(5, "entry")
	b.AddNode(3)
	b.AddEdge(0, 1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := &Fixture{
		AlgA:  "MCP",
		AlgB:  "DLS",
		Procs: 8,
		Candidate: Candidate{
			Family:      "erdos",
			Params:      map[string]string{"v": "2", "ccr": "0.5"},
			Seed:        42,
			PerturbSeed: 7,
			Perturb:     0.25,
		},
		LenA:      12,
		LenB:      10,
		MinGap:    0.2,
		Objective: "fault-gap",
		G:         g,
	}
	var buf bytes.Buffer
	if err := WriteFixture(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFixture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-reading fixture: %v\n%s", err, buf.String())
	}
	if out.AlgA != in.AlgA || out.AlgB != in.AlgB || out.Procs != in.Procs {
		t.Errorf("pair/procs lost: %+v", out)
	}
	if out.Family != in.Family || out.Seed != in.Seed ||
		out.PerturbSeed != in.PerturbSeed || out.Perturb != in.Perturb {
		t.Errorf("provenance lost: %+v", out)
	}
	if out.Params["v"] != "2" || out.Params["ccr"] != "0.5" {
		t.Errorf("params lost: %v", out.Params)
	}
	if out.LenA != 12 || out.LenB != 10 || out.MinGap != 0.2 {
		t.Errorf("lengths/gap lost: %+v", out)
	}
	if out.Objective != "fault-gap" {
		t.Errorf("objective lost: %q, want \"fault-gap\"", out.Objective)
	}
	if out.G.NumNodes() != 2 || out.G.NumEdges() != 1 {
		t.Errorf("graph lost: %d nodes %d edges", out.G.NumNodes(), out.G.NumEdges())
	}
	if gap := (GapObjective{}).Score(out.LenA, out.LenB); gap != 0.2 {
		t.Errorf("gap = %g, want 0.2", gap)
	}

	// A fixture is also a plain .tg file.
	if _, err := dag.ReadText(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("fixture is not a valid plain .tg file: %v", err)
	}

	if _, err := ReadFixture(strings.NewReader("nodes 1\nnode 0 1\n")); err == nil {
		t.Error("fixture without provenance header accepted")
	}
	if _, err := ReadFixture(strings.NewReader("# adv bogus x\nnodes 1\nnode 0 1\n")); err == nil {
		t.Error("fixture with unknown header key accepted")
	}

	// The binary encoding round-trips the same fixture: the provenance
	// header rides in the .tgb meta string and ReadFixture detects the
	// magic.
	var bin bytes.Buffer
	if err := WriteFixtureBinary(&bin, in); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= buf.Len() {
		t.Errorf("binary fixture (%d bytes) not smaller than text fixture (%d bytes)", bin.Len(), buf.Len())
	}
	bout, err := ReadFixture(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatalf("re-reading binary fixture: %v", err)
	}
	if bout.AlgA != in.AlgA || bout.AlgB != in.AlgB || bout.Procs != in.Procs ||
		bout.Family != in.Family || bout.Seed != in.Seed || bout.Objective != in.Objective ||
		bout.LenA != in.LenA || bout.LenB != in.LenB || bout.MinGap != in.MinGap {
		t.Errorf("binary fixture lost provenance: %+v", bout)
	}
	if bout.G.NumNodes() != 2 || bout.G.NumEdges() != 1 || bout.G.Label(0) != "entry" {
		t.Errorf("binary fixture lost the graph: %d nodes %d edges label %q",
			bout.G.NumNodes(), bout.G.NumEdges(), bout.G.Label(0))
	}

	// A binary fixture is also a plain .tgb file.
	if _, err := dag.ReadAny(bytes.NewReader(bin.Bytes())); err != nil {
		t.Errorf("binary fixture is not a valid plain .tgb file: %v", err)
	}

	// LoadFixtures picks up both encodings.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.tg"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.tgb"), bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFixtures(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 || loaded["a.tg"] == nil || loaded["b.tgb"] == nil {
		t.Errorf("LoadFixtures found %d fixtures, want a.tg and b.tgb", len(loaded))
	}
}

// TestArchive pins the archiver: top-K positive-gap candidates become
// fixtures named by family and pair, loadable by LoadFixtures.
func TestArchive(t *testing.T) {
	opts := Defaults(11)
	opts.Generations = 4
	rep, err := Search(opts, toyEvaluator)
	if err != nil {
		t.Fatal(err)
	}
	rep.AlgA, rep.AlgB = "MCP", "APN/DLS"

	dir := t.TempDir()
	paths, err := Archive(dir, rep, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 || len(paths) > 3 {
		t.Fatalf("archived %d fixtures, want 1..3", len(paths))
	}
	fixtures, err := LoadFixtures(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) != len(paths) {
		t.Fatalf("LoadFixtures found %d of %d fixtures", len(fixtures), len(paths))
	}
	for _, path := range paths {
		name := filepath.Base(path)
		fx := fixtures[name]
		if fx == nil {
			t.Fatalf("fixture %s not loaded", name)
		}
		if fx.AlgA != "MCP" || fx.AlgB != "APN/DLS" || fx.Procs != 8 {
			t.Errorf("%s: pair/procs wrong: %+v", name, fx)
		}
		if gap := (GapObjective{}).Score(fx.LenA, fx.LenB); gap < fx.MinGap {
			t.Errorf("%s: recorded gap %g below its own pinned floor %g", name, gap, fx.MinGap)
		}
		if !strings.Contains(name, "-mcp-vs-apn-dls-") {
			t.Errorf("fixture name %q does not follow the family-pair-rank convention", name)
		}
	}

	// Archiving a report with no pair is an error; an empty report
	// archives nothing.
	if _, err := Archive(dir, &Report{}, 8, 3); err == nil {
		t.Error("pairless report accepted")
	}
	empty := t.TempDir()
	none, err := Archive(empty, &Report{AlgA: "a", AlgB: "b"}, 8, 3)
	if err != nil || len(none) != 0 {
		t.Errorf("empty report archived %d fixtures, err %v", len(none), err)
	}
	if entries, _ := os.ReadDir(empty); len(entries) != 0 {
		t.Error("empty report left files behind")
	}
}

// TestFloorGap pins the archived gap floor's rounding rule.
func TestFloorGap(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{0.123456, 0.123},
		{0.1, 0.1},
		{0.0004, 0.001},
		{2.5, 2.5},
	} {
		if got := floorGap(tc.in); got != tc.want {
			t.Errorf("floorGap(%g) = %g, want %g", tc.in, got, tc.want)
		}
	}
}
