package core

import (
	"fmt"
	"sort"

	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/table"
)

// This file implements the execution-robustness study (experiment id
// "robust"). The paper ranks algorithms by the static makespan of the
// schedule they emit; Beránek et al. ("Analysis of Workflow Schedulers
// in Simulated Distributed Environments") show such rankings can flip
// once schedules execute under stochastic task durations and network
// contention. The study executes every schedule in the internal/sim
// discrete-event simulator under lognormal duration and communication
// noise — Monte-Carlo over many trials with paired perturbations
// across algorithms — and reports, per generator family, each
// algorithm's realized-makespan statistics and how well the realized
// ranking agrees with the static one.

// robustFamily is one generator family's instance set for the study.
type robustFamily struct {
	name   string
	graphs []gen.NamedGraph
}

// robustPoints returns the matched (size, CCR, instances-per-point)
// grid sampled from every random family.
func robustPoints(s Scale) (sizes []int, ccrs []float64, instances int) {
	if s == Full {
		return []int{50, 100, 200}, []float64{0.1, 1.0, 10.0}, 3
	}
	return []int{40, 80}, []float64{0.5, 2.0}, 2
}

// robustTrials returns the Monte-Carlo trial count per schedule.
func robustTrials(s Scale) int {
	if s == Full {
		return 200
	}
	return 25
}

// robustPerturb is the perturbation model of the study: mean-one
// lognormal multipliers with log-stddev 0.3 on both task durations and
// communication costs — heavy enough tails to surface ranking flips,
// light enough that schedules stay recognizable.
func robustPerturb() sim.Perturbation {
	return sim.Perturbation{Dist: sim.DistLognormal, TaskSpread: 0.3, CommSpread: 0.3}
}

// robustCell is one (algorithm × instance) study cell: the
// Monte-Carlo statistics of executing that schedule (Stats.Static
// carries the planned makespan).
type robustCell struct {
	stats sim.Stats
}

// robustSeed mixes the per-instance simulation seed. It depends only
// on the instance — never the algorithm — so every algorithm's
// schedule executes under identical perturbations (paired trials).
func robustSeed(seed int64, fi, gi int) int64 {
	return seed + int64(fi+1)*1_000_003 + int64(gi+1)*7_919
}

// runRobustTrials verifies the zero-variance anchor and runs the
// Monte-Carlo trials for one compiled schedule.
func runRobustTrials(plan *sim.Plan, static int64, opts sim.Options, trials int, label string) (robustCell, error) {
	zero, err := plan.Run(sim.Options{}, 0)
	if err != nil {
		return robustCell{}, fmt.Errorf("robust: %s: %w", label, err)
	}
	if zero != static {
		return robustCell{}, fmt.Errorf("robust: %s: zero-variance simulation yields %d, static makespan is %d",
			label, zero, static)
	}
	stats, err := sim.MonteCarlo(plan, opts, trials)
	if err != nil {
		return robustCell{}, fmt.Errorf("robust: %s: %w", label, err)
	}
	return robustCell{stats: stats}, nil
}

// Robust runs the Monte-Carlo execution-robustness study: the BNP
// algorithms (clique model) and the APN algorithms (hypercube with
// per-link contention) over every registered generator family,
// simulating each schedule under perturbed durations. Per family and
// algorithm it reports the mean and P99 realized/static makespan
// ratio and the realized-makespan rank; the tau column is the
// Kendall-tau agreement between the family's realized ranking and its
// static ranking (1 = execution noise never reorders the algorithms).
// Before any trial, every schedule is executed once unperturbed and
// must reproduce its static makespan exactly. Output is deterministic
// in (seed, scale) and byte-identical for every worker count.
func Robust(cfg Config) error {
	fams, err := suiteCacheFor(cfg).robustSuite(cfg)
	if err != nil {
		return err
	}
	trials := robustTrials(cfg.Scale)
	perturb := robustPerturb()
	topo := apnTopology()
	panels := []struct {
		class Class
		algs  []Algorithm
	}{{BNP, ByClass(BNP)}, {APN, ByClass(APN)}}

	var p plan[robustCell]
	for _, panel := range panels {
		for fi, fam := range fams {
			for gi, ng := range fam.graphs {
				opts := sim.Options{Perturb: perturb, Seed: robustSeed(cfg.Seed, fi, gi)}
				for _, a := range panel.algs {
					a, ng := a, ng
					label := fmt.Sprintf("%s(%s) on %s", a.Name, a.Class, ng.Name)
					procs := BNPProcs(ng.G.NumNodes())
					p.add(func() (robustCell, error) {
						cs, ms, err := a.schedule(ng.G, procs, nil, topo)
						if err != nil {
							return robustCell{}, fmt.Errorf("robust: %s: %w", label, err)
						}
						var (
							static int64
							splan  *sim.Plan
						)
						if ms != nil {
							static = ms.Makespan()
							splan, err = sim.CompileAPN(ms)
						} else {
							static = cs.Makespan()
							splan, err = sim.Compile(cs)
							cs.Release()
						}
						if err != nil {
							return robustCell{}, fmt.Errorf("robust: %s: %w", label, err)
						}
						return runRobustTrials(splan, static, opts, trials, label)
					})
				}
			}
		}
	}
	results, err := p.run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(cfg.Out, "model: %s task spread %g / comm spread %g, %d trials/schedule, timetable dispatch, paired perturbations across algorithms\n",
		perturb.Dist, perturb.TaskSpread, perturb.CommSpread, trials)
	cur := cursor[robustCell]{rs: results}
	for _, panel := range panels {
		algs := panel.algs
		cols := []string{"family", "graphs"}
		for _, a := range algs {
			cols = append(cols, a.Name)
		}
		cols = append(cols, "tau")
		title := fmt.Sprintf("Realized makespan ratio mean/P99 (realized rank), %s algorithms", panel.class)
		if panel.class == APN {
			title += " on " + topo.Name()
		}
		t := table.New(title, cols...)
		var tauSum float64
		for _, fam := range fams {
			n := len(fam.graphs)
			meanStatic := make([]float64, len(algs))
			meanRealized := make([]float64, len(algs))
			meanRatio := make([]float64, len(algs))
			p99Ratio := make([]float64, len(algs))
			allRatios := make([][]float64, len(algs))
			for range fam.graphs {
				for ai := range algs {
					c := cur.next()
					meanStatic[ai] += float64(c.stats.Static)
					meanRealized[ai] += c.stats.MeanMakespan
					allRatios[ai] = append(allRatios[ai], c.stats.Ratios...)
				}
			}
			for ai := range algs {
				meanStatic[ai] /= float64(n)
				meanRealized[ai] /= float64(n)
				var sum float64
				for _, r := range allRatios[ai] {
					sum += r
				}
				meanRatio[ai] = sum / float64(len(allRatios[ai]))
				sort.Float64s(allRatios[ai])
				p99Ratio[ai] = allRatios[ai][sim.PercentileIndex(len(allRatios[ai]), 0.99)]
			}
			staticRank := rankAscending(meanStatic)
			realizedRank := rankAscending(meanRealized)
			tau := kendallTau(realizedRank, staticRank)
			tauSum += tau
			row := []string{fam.name, fmt.Sprint(n)}
			for ai := range algs {
				row = append(row, fmt.Sprintf("%.3f/%.3f (%d)", meanRatio[ai], p99Ratio[ai], realizedRank[ai]))
			}
			row = append(row, fmt.Sprintf("%.3f", tau))
			t.AddRow(row...)
		}
		if err := t.Render(cfg.Out); err != nil {
			return err
		}
		if len(fams) > 0 {
			fmt.Fprintf(cfg.Out, "%s mean Kendall-tau (realized vs static ranking) across %d families: %.3f\n",
				panel.class, len(fams), tauSum/float64(len(fams)))
		}
	}
	fmt.Fprintln(cfg.Out, "tau: 1 = execution noise never reorders the algorithms; lower = the static ranking is fragile")
	return nil
}
