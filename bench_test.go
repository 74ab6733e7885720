package taskgraph

// One testing.B benchmark per table and figure of the paper, plus
// ablation benchmarks for the design axes the paper's conclusions rest
// on (insertion vs non-insertion, static vs dynamic priority, CP-based
// vs non-CP-based priorities, topology density).
//
// The table/figure benchmarks run the Quick-scale experiment workload;
// use cmd/dagbench -scale=full for the paper-sized runs. Quality
// ablations report NSL through b.ReportMetric in addition to time.
//
// These kernels produced the historical BENCH_*.json trajectory. The
// tracked benchmark is now perfbench (perfbench/README.md); CI runs each
// kernel here once, to prove it still builds and runs.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/obs"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	benchExperimentWorkers(b, id, 0)
}

func benchExperimentWorkers(b *testing.B, id string, workers int) {
	b.Helper()
	cfg := core.Config{Seed: 1998, Scale: core.Quick, Out: io.Discard, Workers: workers, Cache: core.NewSuiteCache()}
	// Warm the suite cache so iterations measure scheduling, not suite
	// generation or the RGBOS branch-and-bound.
	if err := core.RunExperiment(id, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.RunExperiment(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1PSG(b *testing.B)          { benchExperiment(b, "table1") }
func BenchmarkTable2RGBOSUNC(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkTable3RGBOSBNP(b *testing.B)     { benchExperiment(b, "table3") }
func BenchmarkTable4RGPOSUNC(b *testing.B)     { benchExperiment(b, "table4") }
func BenchmarkTable5RGPOSBNP(b *testing.B)     { benchExperiment(b, "table5") }
func BenchmarkTable6RunningTimes(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkFigure2NSL(b *testing.B)         { benchExperiment(b, "fig2") }
func BenchmarkFigure3Processors(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFigure4Cholesky(b *testing.B)    { benchExperiment(b, "fig4") }

// BenchmarkRobustExperiment runs the quick-scale Monte-Carlo
// execution-robustness study end to end: every registered family,
// BNP + APN schedules, 25 simulated executions each.
func BenchmarkRobustExperiment(b *testing.B) { benchExperiment(b, "robust") }

// BenchmarkComponents measures the component-attribution experiment:
// the full 60-combo parameterized scheduler space over the matched
// random-family grid on homogeneous and heterogeneous machines
// (BENCH_3.json added it to the trajectory).
func BenchmarkComponents(b *testing.B) { benchExperiment(b, "components") }

// BenchmarkAdversarialGeneration measures one generation of the
// adversarial instance search: building a 16-candidate population and
// scheduling it with the default MCP:LAST pair through the experiment
// pool. This is the per-generation kernel behind -exp adversarial.
func BenchmarkAdversarialGeneration(b *testing.B) {
	cfg := core.Config{Seed: 1998, Scale: core.Quick, Out: io.Discard, Cache: core.NewSuiteCache()}
	opts := AdversarialDefaults(1998)
	opts.Generations = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := AdversarialSearch(cfg, opts, "MCP", "LAST")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rep.Top) > 0 {
			b.ReportMetric(rep.Top[0].Score, "best-gap")
		}
	}
}

// BenchmarkSimMonteCarlo measures the execution simulator's
// steady-state Monte-Carlo loop — schedule once, compile once, then
// 100 perturbed discrete-event executions of a 100-node MCP schedule.
// This is the per-cell kernel behind -exp robust; the frozen
// BENCH_*.json history recorded it, and perfbench's faults workload
// now measures the simulator.
func BenchmarkSimMonteCarlo(b *testing.B) {
	g, err := gen.Generate("rgnos", 7, gen.Params{"v": "100", "ccr": "1"})
	if err != nil {
		b.Fatal(err)
	}
	s, err := ScheduleBNP("MCP", g, 8)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := CompileSim(s)
	if err != nil {
		b.Fatal(err)
	}
	opts := SimOptions{
		Perturb: SimPerturbation{Dist: DistLognormal, TaskSpread: 0.3, CommSpread: 0.3},
		Seed:    1998,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := SimMonteCarlo(plan, opts, 100)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(st.MeanRatio, "mean-ratio")
		}
	}
}

// BenchmarkFaultMonteCarlo measures the fault-injection engine's
// steady-state Monte-Carlo loop — schedule once, compile once, then
// 100 crash-injected executions of a 100-node MCP schedule under
// checkpoint recovery at an MTBF harsh enough that most trials crash
// and repair. This is the per-cell kernel behind -exp faults; the
// frozen BENCH_*.json history recorded it, and perfbench's faults
// workload now measures the fault engine.
func BenchmarkFaultMonteCarlo(b *testing.B) {
	g, err := gen.Generate("rgnos", 7, gen.Params{"v": "100", "ccr": "1"})
	if err != nil {
		b.Fatal(err)
	}
	s, err := ScheduleBNP("MCP", g, 8)
	if err != nil {
		b.Fatal(err)
	}
	x, err := CompileFaults(s)
	if err != nil {
		b.Fatal(err)
	}
	static := s.Makespan()
	opts := FaultOptions{
		Sim:      SimOptions{Seed: 1998},
		Faults:   FaultModel{MTBF: static, MeanRepair: static / 10},
		Recovery: RecoveryCheckpoint(static / 16),
		Deadline: 3 * static / 2,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := FaultMonteCarlo(x, opts, 100)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(st.SurvivalRate, "survival")
			b.ReportMetric(st.MeanCrashes, "mean-crashes")
		}
	}
}

// BenchmarkScalingLadder measures the streaming million-node pipeline
// behind the scaling experiment at one mid-ladder rung per family,
// inside the streaming-generator regime: generate the graph, encode it
// to the binary .tgb form, decode it back, and schedule the re-read
// graph with HLFET (the roster's near-linear representative, heap-
// driven). Each sub-benchmark also reports the deterministic encoding
// density (tgb-B/node) and the structural power-law exponent of the
// encoded size against a rung at v/4 (tgb-slope, ~1.0 = the encoding
// scales linearly). BENCH_5.json added it to the trajectory;
// perfbench's million workload now tracks the 10^6-node pipeline.
func BenchmarkScalingLadder(b *testing.B) {
	families := []struct {
		name   string
		v      int
		params func(v int) gen.Params
	}{
		{"layered", 32000, func(v int) gen.Params {
			return gen.Params{"v": fmt.Sprint(v), "p": fmt.Sprintf("%g", 4/math.Sqrt(float64(v)))}
		}},
		{"erdos", 32000, func(v int) gen.Params {
			return gen.Params{"v": fmt.Sprint(v), "p": fmt.Sprintf("%g", 8/float64(v-1))}
		}},
		{"faninout", 32000, func(v int) gen.Params {
			return gen.Params{"v": fmt.Sprint(v)}
		}},
	}
	encodedLen := func(fam string, seed int64, params gen.Params) int {
		g, err := gen.Generate(fam, seed, params)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dag.WriteBinary(&buf, g); err != nil {
			b.Fatal(err)
		}
		return buf.Len()
	}
	for _, fam := range families {
		b.Run(fmt.Sprintf("%s-%d", fam.name, fam.v), func(b *testing.B) {
			small := encodedLen(fam.name, 1998, fam.params(fam.v/4))
			large := encodedLen(fam.name, 1998, fam.params(fam.v))
			var buf bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := gen.Generate(fam.name, 1998, fam.params(fam.v))
				if err != nil {
					b.Fatal(err)
				}
				buf.Reset()
				if err := dag.WriteBinary(&buf, g); err != nil {
					b.Fatal(err)
				}
				g2, err := dag.ReadBinary(&buf)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ScheduleBNP("HLFET", g2, 32); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(large)/float64(fam.v), "tgb-B/node")
			b.ReportMetric(math.Log(float64(large)/float64(small))/math.Log(4), "tgb-slope")
		})
	}
}

// BenchmarkExperimentWorkers measures the parallel experiment runner's
// scaling on table6, the heaviest quick-scale sweep (all 15 algorithms
// over the RGNOS suite). Compare the workers=1 and workers=N lines to
// see the wall-clock speedup on a multi-core machine.
func BenchmarkExperimentWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchExperimentWorkers(b, "table6", w)
		})
	}
}

// benchGraphs is a fixed workload of mid-size RGNOS-style graphs shared
// by the per-algorithm and ablation benchmarks.
func benchGraphs() []*dag.Graph {
	rng := rand.New(rand.NewSource(7))
	graphs := make([]*dag.Graph, 0, 6)
	for _, ccr := range []float64{0.5, 2.0} {
		for _, par := range []int{1, 3, 5} {
			graphs = append(graphs, gen.RGNOSGraph(rng, 100, ccr, par))
		}
	}
	return graphs
}

// BenchmarkAlgorithm measures each of the 15 algorithms on the shared
// 100-node workload — the per-algorithm running-time comparison behind
// Table 6.
func BenchmarkAlgorithm(b *testing.B) {
	graphs := benchGraphs()
	topo := machine.Hypercube(3)
	for _, a := range core.All() {
		a := a
		b.Run(string(a.Class)+"/"+a.Name, func(b *testing.B) {
			var nsl float64
			for i := 0; i < b.N; i++ {
				nsl = 0
				for _, g := range graphs {
					res, err := a.Run(g, core.BNPProcs(g.NumNodes()), topo)
					if err != nil {
						b.Fatal(err)
					}
					nsl += res.NSL
				}
			}
			b.ReportMetric(nsl/float64(len(graphs)), "nsl")
		})
	}
}

// BenchmarkAblationInsertion isolates the paper's "insertion is better
// than non-insertion" finding: ISH is HLFET plus hole filling, so the
// NSL gap between the two sub-benchmarks is the value of insertion.
func BenchmarkAblationInsertion(b *testing.B) {
	graphs := benchGraphs()
	for _, alg := range []string{"HLFET", "ISH"} {
		alg := alg
		b.Run(alg, func(b *testing.B) {
			var nsl float64
			for i := 0; i < b.N; i++ {
				nsl = 0
				for _, g := range graphs {
					s, err := ScheduleBNP(alg, g, 8)
					if err != nil {
						b.Fatal(err)
					}
					nsl += s.NSL()
				}
			}
			b.ReportMetric(nsl/float64(len(graphs)), "nsl")
		})
	}
}

// BenchmarkAblationPriority isolates "dynamic priority beats static,
// except MCP": HLFET (static level list) vs ETF and DLS (dynamic
// node-processor selection) vs MCP (static ALAP list, the exception).
func BenchmarkAblationPriority(b *testing.B) {
	graphs := benchGraphs()
	for _, alg := range []string{"HLFET", "ETF", "DLS", "MCP"} {
		alg := alg
		b.Run(alg, func(b *testing.B) {
			var nsl float64
			for i := 0; i < b.N; i++ {
				nsl = 0
				for _, g := range graphs {
					s, err := ScheduleBNP(alg, g, 8)
					if err != nil {
						b.Fatal(err)
					}
					nsl += s.NSL()
				}
			}
			b.ReportMetric(nsl/float64(len(graphs)), "nsl")
		})
	}
}

// BenchmarkAblationCriticalPath isolates "CP-based beats non-CP-based"
// within the UNC class: DCP and DSC (CP-driven) against EZ and LC.
func BenchmarkAblationCriticalPath(b *testing.B) {
	graphs := benchGraphs()
	for _, alg := range []string{"DCP", "DSC", "EZ", "LC"} {
		alg := alg
		b.Run(alg, func(b *testing.B) {
			var nsl float64
			for i := 0; i < b.N; i++ {
				nsl = 0
				for _, g := range graphs {
					s, err := ScheduleUNC(alg, g)
					if err != nil {
						b.Fatal(err)
					}
					nsl += s.NSL()
				}
			}
			b.ReportMetric(nsl/float64(len(graphs)), "nsl")
		})
	}
}

// BenchmarkAblationTopology isolates the paper's observation that "all
// algorithms perform better on networks with more communication links":
// BSA on progressively denser 8-processor networks.
func BenchmarkAblationTopology(b *testing.B) {
	graphs := benchGraphs()
	topos := map[string]*machine.Topology{
		"chain":     machine.Chain(8),
		"ring":      machine.Ring(8),
		"hypercube": machine.Hypercube(3),
		"clique":    machine.Clique(8),
	}
	for _, name := range []string{"chain", "ring", "hypercube", "clique"} {
		topo := topos[name]
		b.Run(name, func(b *testing.B) {
			var nsl float64
			for i := 0; i < b.N; i++ {
				nsl = 0
				for _, g := range graphs {
					s, err := ScheduleAPN("BSA", g, topo)
					if err != nil {
						b.Fatal(err)
					}
					nsl += s.NSL()
				}
			}
			b.ReportMetric(nsl/float64(len(graphs)), "nsl")
		})
	}
}

// BenchmarkObsOverhead measures what observability costs the ETF
// steady-state scheduling loop (the paper's heaviest BNP kernel) in
// three regimes: fully off (the default every experiment runs under —
// this sub-benchmark is the disabled-path contract, expected within
// noise of the pre-observability kernel and 0 allocs/op from the
// schedule pool), metrics on, and a live JSONL decision tracer.
func BenchmarkObsOverhead(b *testing.B) {
	graphs := benchGraphs()
	loop := func(b *testing.B) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				s, err := ScheduleBNP("ETF", g, 8)
				if err != nil {
					b.Fatal(err)
				}
				s.Release()
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		loop(b)
	})
	b.Run("metrics", func(b *testing.B) {
		obs.EnableMetrics(true)
		defer obs.EnableMetrics(false)
		b.ReportAllocs()
		b.ResetTimer()
		loop(b)
	})
	b.Run("trace", func(b *testing.B) {
		tr := obs.NewTracer(io.Discard, obs.TraceJSONL)
		obs.SetTracer(tr)
		defer obs.SetTracer(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				tr.BeginRun("ETF", "BNP", g.NumNodes(), 8)
				s, err := ScheduleBNP("ETF", g, 8)
				tr.EndRun()
				if err != nil {
					b.Fatal(err)
				}
				s.Release()
			}
		}
	})
}

// BenchmarkOptimalSearch measures the branch-and-bound on an
// RGBOS-sized instance (the cost behind Tables 2 and 3).
func BenchmarkOptimalSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := gen.RGBOSGraph(rng, 14, 1.0)
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleOptimal(g, g.NumNodes(), OptimalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
