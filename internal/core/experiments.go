package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/table"
)

// Scale selects how much of each paper workload an experiment runs.
type Scale int

// Quick runs reduced instance counts sized for CI and benchmarks; Full
// reproduces the paper's instance counts (minutes of CPU).
const (
	Quick Scale = iota
	Full
)

// Config parameterizes an experiment run.
type Config struct {
	Seed  int64
	Scale Scale
	Out   io.Writer

	// Workers bounds the number of scheduling cells run concurrently;
	// <= 0 selects GOMAXPROCS. Output is byte-identical for every
	// worker count, except Table 6's measured timing cells, which vary
	// run to run like any wall-clock measurement.
	Workers int

	// Cache shares generated suites and RGBOS optima across experiment
	// runs with the same (seed, scale); nil selects a process-wide
	// cache.
	Cache *SuiteCache

	// AdversarialPair selects the algorithm pair "A:B" the adversarial
	// experiment compares — the search hunts instances on which B beats
	// A. Empty selects "MCP:LAST". See AlgorithmByName for the accepted
	// name forms.
	AdversarialPair string

	// AdversarialArchive, when non-empty, is a directory the
	// adversarial experiment writes its top counterexample fixtures
	// into (.tg files with provenance headers).
	AdversarialArchive string

	// ScalingMeasure adds wall-clock timing, allocation, peak-RSS, and
	// fitted time-slope columns to the scaling experiment's output.
	// Measured mode forces a serial run (concurrent cells would contend
	// for cores and memory bandwidth, like Table 6's timing cells) and
	// its clock-derived columns vary run to run; with it off the
	// experiment's output is fully deterministic.
	ScalingMeasure bool

	// AdversarialFaults switches the adversarial experiment to the
	// fault-gap objective: candidates are scored on fault-effective
	// makespans measured under the canonical fault scenario (see
	// FaultEffective) instead of static makespans, hunting instances
	// whose schedules degrade ungracefully for one algorithm but not
	// the other.
	AdversarialFaults bool
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) error
}

// Experiments returns every table and figure of the paper's evaluation
// section, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: schedule lengths of the UNC and BNP algorithms on the PSGs", Table1},
		{"table2", "Table 2: % degradation from optimal on RGBOS (UNC algorithms)", Table2},
		{"table3", "Table 3: % degradation from optimal on RGBOS (BNP algorithms)", Table3},
		{"table4", "Table 4: % degradation from optimal on RGPOS (UNC algorithms)", Table4},
		{"table5", "Table 5: % degradation from optimal on RGPOS (BNP algorithms)", Table5},
		{"table6", "Table 6: average running times on RGNOS (all 15 algorithms)", Table6},
		{"fig2", "Figure 2: average NSL vs graph size on RGNOS (UNC, BNP, APN)", Figure2},
		{"fig3", "Figure 3: average processors used vs graph size on RGNOS (UNC, BNP)", Figure3},
		{"fig4", "Figure 4: average NSL on Cholesky traced graphs (UNC, BNP, APN)", Figure4},
		{"unccs", "Extension (paper section 7): BNP vs UNC + cluster scheduling", UNCCS},
		{"tdb", "Extension (paper section 4): task duplication (DSH) vs non-duplication", TDB},
		{"genx", "Extension (Canon et al. 2019): cross-generator ranking stability of the BNP algorithms", GenX},
		{"robust", "Extension (Beránek et al.): Monte-Carlo execution robustness under perturbed durations and link contention", Robust},
		{"components", "Extension (Coleman et al. 2024): component attribution over the parameterized scheduler space, homogeneous and heterogeneous", Components},
		{"adversarial", "Extension (PISA): adversarial evolutionary search for instances where one algorithm beats another", Adversarial},
		{"faults", "Extension (fault injection): graceful degradation of static schedules under processor and link failures, with reactive recovery", Faults},
		{"scaling", "Extension (million-node scale): empirical complexity of generation, binary encoding, and scheduling up a 10^3..10^6 ladder", Scaling},
	}
}

// RunExperiment runs one experiment by ID.
func RunExperiment(id string, cfg Config) error {
	for _, e := range Experiments() {
		if e.ID == id {
			fmt.Fprintf(cfg.Out, "== %s ==\n", e.Title)
			return e.Run(cfg)
		}
	}
	return fmt.Errorf("core: unknown experiment %q", id)
}

// apnTopology is the network used by all APN experiments: an
// 8-processor hypercube ("a 500-node task graph is scheduled to 8
// processors", paper section 6.4).
func apnTopology() *machine.Topology { return machine.Hypercube(3) }

// rgnosSizes returns the RGNOS graph sizes for a scale.
func rgnosSizes(s Scale) []int {
	if s == Full {
		return []int{50, 100, 150, 200, 250, 300, 350, 400, 450, 500}
	}
	return []int{50, 100, 150}
}

func rgnosCCRs(s Scale) []float64 {
	if s == Full {
		return gen.RGNOSCCRs
	}
	return []float64{0.1, 1.0, 10.0}
}

func rgnosParallelism(s Scale) []int {
	if s == Full {
		return []int{1, 2, 3, 4, 5}
	}
	return []int{1, 3, 5}
}

// rgbosMaxNodes bounds the RGBOS sizes so the branch-and-bound closes:
// the paper's full range reaches 32 nodes.
func rgbosMaxNodes(s Scale) int {
	if s == Full {
		return 32
	}
	return 18
}

func rgposSizes(s Scale) (min, max, step int) {
	if s == Full {
		return 50, 500, 50
	}
	return 50, 150, 50
}

func choleskyDims(s Scale) []int {
	if s == Full {
		return []int{8, 16, 24, 32, 40}
	}
	return []int{6, 10, 14}
}

// runCell returns the cell that runs a on g, optionally on
// per-processor speeds (nil for the homogeneous machine), labelling the
// traced run with the experiment and instance names and wrapping errors
// with the same context. Every experiment cell that runs an Algorithm
// goes through it.
func runCell(exp string, a Algorithm, instance string, g *dag.Graph, bnpProcs int, speeds []float64, topo *machine.Topology) func() (Result, error) {
	return func() (Result, error) {
		if t := obs.ActiveTracer(); t != nil {
			// The planner knows the experiment and instance names; RunOn
			// only sees the graph. Tracing implies a serial runner, so the
			// staged labels pair with the BeginRun that follows.
			t.SetInstance(exp, instance)
		}
		res, err := a.RunOn(g, bnpProcs, speeds, topo)
		if err != nil {
			return Result{}, fmt.Errorf("%s: %s on %s: %w", exp, a.Name, instance, err)
		}
		return res, nil
	}
}

// Table1 reports the schedule length of every UNC and BNP algorithm on
// each peer set graph. APN algorithms are excluded, as in the paper
// ("many network topologies are possible as test cases", section 6.1).
func Table1(cfg Config) error {
	algs := append(ByClass(UNC), ByClass(BNP)...)
	graphs := gen.PeerSet()
	var p plan[Result]
	for _, ng := range graphs {
		for _, a := range algs {
			p.add(runCell("table1", a, ng.Name, ng.G, BNPProcs(ng.G.NumNodes()), nil, nil))
		}
	}
	results, err := p.run(cfg)
	if err != nil {
		return err
	}
	cols := []string{"graph", "v", "CCR"}
	for _, a := range algs {
		cols = append(cols, a.Name)
	}
	t := table.New("Schedule lengths on the Peer Set Graphs", cols...)
	cur := cursor[Result]{rs: results}
	for _, ng := range graphs {
		row := []string{ng.Name, fmt.Sprint(ng.G.NumNodes()), fmt.Sprintf("%.2f", ng.G.CCR())}
		for range algs {
			row = append(row, fmt.Sprint(cur.next().Length))
		}
		t.AddRow(row...)
	}
	return t.Render(cfg.Out)
}

// degradationTable is the shared body of Tables 2-5: percentage
// degradation of each algorithm from the per-instance optimum, one row
// per graph, grouped by CCR, with per-CCR "number optimal" and "average
// degradation" summary rows.
type degradationInstance struct {
	label   string
	g       *dag.Graph
	optimal int64
	closed  bool
}

func degradationTable(cfg Config, exp, title string, algs []Algorithm, bnpProcsFor func(*dag.Graph) int,
	suites map[float64][]degradationInstance, ccrs []float64) error {

	var p plan[Result]
	for _, ccr := range ccrs {
		for _, inst := range suites[ccr] {
			for _, a := range algs {
				p.add(runCell(exp, a, inst.label, inst.g, bnpProcsFor(inst.g), nil, nil))
			}
		}
	}
	results, err := p.run(cfg)
	if err != nil {
		return err
	}

	cols := []string{"CCR", "graph", "optimal"}
	for _, a := range algs {
		cols = append(cols, a.Name)
	}
	t := table.New(title, cols...)
	cur := cursor[Result]{rs: results}
	for _, ccr := range ccrs {
		numOpt := make([]int, len(algs))
		sumDeg := make([]float64, len(algs))
		counted := 0
		for _, inst := range suites[ccr] {
			optLabel := fmt.Sprint(inst.optimal)
			if !inst.closed {
				optLabel += "*" // best known, not proven
			}
			row := []string{fmt.Sprintf("%g", ccr), inst.label, optLabel}
			if inst.closed {
				counted++
			}
			for i := range algs {
				res := cur.next()
				deg := 100 * float64(res.Length-inst.optimal) / float64(inst.optimal)
				row = append(row, fmt.Sprintf("%.1f", deg))
				if inst.closed {
					if res.Length == inst.optimal {
						numOpt[i]++
					}
					sumDeg[i] += deg
				}
			}
			t.AddRow(row...)
		}
		// Summary rows for this CCR (closed instances only).
		optRow := []string{fmt.Sprintf("%g", ccr), "no. of optimal", fmt.Sprint(counted)}
		avgRow := []string{fmt.Sprintf("%g", ccr), "avg degradation", ""}
		for i := range algs {
			optRow = append(optRow, fmt.Sprint(numOpt[i]))
			if counted > 0 {
				avgRow = append(avgRow, fmt.Sprintf("%.1f", sumDeg[i]/float64(counted)))
			} else {
				avgRow = append(avgRow, "-")
			}
		}
		t.AddRow(optRow...)
		t.AddRow(avgRow...)
		t.AddSeparator()
	}
	return t.Render(cfg.Out)
}

// Table2 compares the UNC algorithms against branch-and-bound optima on
// the RGBOS suite.
func Table2(cfg Config) error {
	suites, err := suiteCacheFor(cfg).rgbosInstances(cfg)
	if err != nil {
		return err
	}
	return degradationTable(cfg, "table2", "% degradation from optimal, RGBOS (UNC algorithms)",
		ByClass(UNC), func(g *dag.Graph) int { return BNPProcs(g.NumNodes()) },
		suites, gen.PaperCCRs)
}

// Table3 compares the BNP algorithms against the same optima.
func Table3(cfg Config) error {
	suites, err := suiteCacheFor(cfg).rgbosInstances(cfg)
	if err != nil {
		return err
	}
	return degradationTable(cfg, "table3", "% degradation from optimal, RGBOS (BNP algorithms)",
		ByClass(BNP), func(g *dag.Graph) int { return BNPProcs(g.NumNodes()) },
		suites, gen.PaperCCRs)
}

// Table4 compares the UNC algorithms against the pre-determined optima
// of the RGPOS suite.
func Table4(cfg Config) error {
	return degradationTable(cfg, "table4", "% degradation from optimal, RGPOS (UNC algorithms)",
		ByClass(UNC), func(g *dag.Graph) int { return BNPProcs(g.NumNodes()) },
		suiteCacheFor(cfg).rgposInstances(cfg), gen.PaperCCRs)
}

// Table5 compares the BNP algorithms on RGPOS. The BNP processor count
// matches the 8 processors the optimal schedules were constructed for,
// so the optimum is a true lower bound.
func Table5(cfg Config) error {
	return degradationTable(cfg, "table5", "% degradation from optimal, RGPOS (BNP algorithms)",
		ByClass(BNP), func(*dag.Graph) int { return 8 },
		suiteCacheFor(cfg).rgposInstances(cfg), gen.PaperCCRs)
}

// Table6 reports average scheduling running times (seconds) per graph
// size for all 15 algorithms, as the paper does for its RGNOS suite.
// Each cell's Elapsed is measured inside Algorithm.Run, i.e. inside the
// worker goroutine executing that cell, so a timing never spans other
// cells' work. Concurrent cells still contend for cores and memory
// bandwidth, so for timings comparable to the paper's serial
// measurements run this table with Workers=1.
func Table6(cfg Config) error {
	bySize := suiteCacheFor(cfg).rgnosSuite(cfg)
	sizes := rgnosSizes(cfg.Scale)
	algs := All()
	topo := apnTopology()
	var p plan[Result]
	for _, v := range sizes {
		for _, a := range algs {
			for _, ng := range bySize[v] {
				p.add(runCell("table6", a, ng.Name, ng.G, BNPProcs(v), nil, topo))
			}
		}
	}
	results, err := p.run(cfg)
	if err != nil {
		return err
	}
	cols := []string{"v"}
	for _, a := range algs {
		cols = append(cols, fmt.Sprintf("%s(%s)", a.Name, a.Class))
	}
	t := table.New("Average running times (seconds) on RGNOS", cols...)
	cur := cursor[Result]{rs: results}
	for _, v := range sizes {
		row := []string{fmt.Sprint(v)}
		for range algs {
			var total time.Duration
			for range bySize[v] {
				total += cur.next().Elapsed
			}
			if n := len(bySize[v]); n > 0 {
				row = append(row, fmt.Sprintf("%.4f", (total/time.Duration(n)).Seconds()))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t.Render(cfg.Out)
}

// Figure2 reproduces the average-NSL-vs-size curves for the UNC (a),
// BNP (b) and APN (c) classes on the RGNOS suite.
func Figure2(cfg Config) error {
	return rgnosFigure(cfg, "fig2", "NSL", []Class{UNC, BNP, APN}, func(r Result) float64 { return r.NSL })
}

// Figure3 reproduces the average-processors-used curves for the UNC (a)
// and BNP (b) classes on the RGNOS suite.
func Figure3(cfg Config) error {
	return rgnosFigure(cfg, "fig3", "processors used", []Class{UNC, BNP}, func(r Result) float64 { return float64(r.Procs) })
}

// rgnosFigure renders one panel per class, lettered from (a), of the
// metric averaged over the RGNOS instances of each size. All panels
// are planned as one cell batch so the pool never drains between them.
func rgnosFigure(cfg Config, exp, label string, classes []Class, metric func(Result) float64) error {
	bySize := suiteCacheFor(cfg).rgnosSuite(cfg)
	sizes := rgnosSizes(cfg.Scale)
	topo := apnTopology()
	var p plan[Result]
	for _, class := range classes {
		for _, v := range sizes {
			for _, a := range ByClass(class) {
				for _, ng := range bySize[v] {
					p.add(runCell(exp, a, ng.Name, ng.G, BNPProcs(v), nil, topo))
				}
			}
		}
	}
	results, err := p.run(cfg)
	if err != nil {
		return err
	}
	xs := make([]string, len(sizes))
	for i, v := range sizes {
		xs[i] = fmt.Sprint(v)
	}
	cur := cursor[Result]{rs: results}
	for pi, class := range classes {
		s := table.NewSeries(fmt.Sprintf("(%c) average %s, %s algorithms", 'a'+pi, label, class), "v", xs...)
		for i, v := range sizes {
			for _, a := range ByClass(class) {
				var total float64
				for range bySize[v] {
					total += metric(cur.next())
				}
				if n := len(bySize[v]); n > 0 {
					s.Set(a.Name, i, total/float64(n))
				} else {
					s.Set(a.Name, i, 0)
				}
			}
		}
		if err := s.Render(cfg.Out); err != nil {
			return err
		}
	}
	return nil
}

// Figure4 reproduces the average-NSL curves on the Cholesky traced
// graphs for the UNC (a), BNP (b) and APN (c) classes.
func Figure4(cfg Config) error {
	dims := choleskyDims(cfg.Scale)
	xs := make([]string, len(dims))
	graphs := make([]gen.NamedGraph, len(dims))
	for i, n := range dims {
		g, err := gen.Cholesky(n, 1.0)
		if err != nil {
			return err
		}
		xs[i] = fmt.Sprint(n)
		graphs[i] = gen.NamedGraph{Name: "cholesky-" + xs[i], G: g}
	}
	topo := apnTopology()
	parts := []struct {
		sub   string
		class Class
	}{{"a", UNC}, {"b", BNP}, {"c", APN}}
	var p plan[Result]
	for _, part := range parts {
		for _, ng := range graphs {
			for _, a := range ByClass(part.class) {
				p.add(runCell("fig4", a, ng.Name, ng.G, BNPProcs(ng.G.NumNodes()), nil, topo))
			}
		}
	}
	results, err := p.run(cfg)
	if err != nil {
		return err
	}
	cur := cursor[Result]{rs: results}
	for _, part := range parts {
		s := table.NewSeries(fmt.Sprintf("(%s) average NSL on Cholesky graphs, %s algorithms", part.sub, part.class), "N", xs...)
		for i := range graphs {
			for _, a := range ByClass(part.class) {
				s.Set(a.Name, i, cur.next().NSL)
			}
		}
		if err := s.Render(cfg.Out); err != nil {
			return err
		}
	}
	return nil
}
