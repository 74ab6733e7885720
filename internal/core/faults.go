package core

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/ft"
	"repro/internal/machine"
	"repro/internal/table"
)

// This file implements the fault-injection study (experiment id
// "faults"). The paper's benchmark assumes every processor survives the
// execution; this extension measures how gracefully each algorithm's
// static schedule degrades when processors fail-stop mid-run and (for
// the APN class) links suffer transient outages, and how much of the
// loss each internal/ft recovery policy wins back. For every schedule
// the study sweeps the processor MTBF from infinity down to a quarter
// of the graph's critical-path computation cost and Monte-Carlo
// executes the schedule under the fault-capable engine, reporting the
// deadline-survival probability (SLO: 1.5x the static makespan) and
// the realized/static makespan ratio of the finished trials. Failure
// traces are paired: they depend on the instance and trial, never the
// algorithm or policy, so every scheduler faces the same crashes.

// faultsFactors is the MTBF sweep, as multiples of the instance's
// critical-path computation sum; 0 is the fault-free anchor (MTBF
// infinity), which must reproduce the static schedule exactly.
var faultsFactors = []float64{0, 4, 1, 0.25}

// faultsHarsh indexes the harshest point of the sweep, used for the
// policy comparison summary.
const faultsHarsh = 3

// faultsFactorName renders one sweep point for table headers.
func faultsFactorName(f float64) string {
	if f == 0 {
		return "inf"
	}
	return fmt.Sprintf("%gx", f)
}

// faultsTrials returns the Monte-Carlo trial count per (schedule,
// policy, MTBF) cell.
func faultsTrials(s Scale) int {
	if s == Full {
		return 100
	}
	return 5
}

// faultsSeed mixes the per-instance simulation seed. Like robustSeed it
// depends only on the instance, so failure traces are paired across
// algorithms and recovery policies; the stride differs so the faults
// study never reuses the robust study's perturbation streams.
func faultsSeed(seed int64, fi, gi int) int64 {
	return seed + int64(fi+1)*2_000_003 + int64(gi+1)*9_973
}

// faultsModel builds the fault model of one sweep point for an
// instance whose critical-path computation sum is ref. Repairs take a
// tenth of ref on average; APN executions additionally suffer link
// outages with the same MTBF and a twentieth of ref mean width.
func faultsModel(factor float64, ref int64, apnLinks bool) ft.FaultModel {
	if factor == 0 {
		return ft.FaultModel{}
	}
	mtbf := max(1, int64(factor*float64(ref)+0.5))
	m := ft.FaultModel{
		MTBF:       mtbf,
		MeanRepair: max(1, ref/10),
	}
	if apnLinks {
		m.LinkMTBF = mtbf
		m.MeanOutage = max(1, ref/20)
	}
	return m
}

// faultsDeadline is the survival SLO: 1.5x the static makespan.
func faultsDeadline(static int64) int64 { return static + static/2 }

// faultsCell carries the Monte-Carlo statistics of one (algorithm x
// instance) pair over the whole sweep: stats[factor][policy].
type faultsCell struct {
	stats [][]ft.Stats
}

// runFaultsSweep Monte-Carlo executes one compiled schedule across the
// MTBF sweep for the given policies. The fault-free anchor must finish
// every trial at the static makespan exactly.
func runFaultsSweep(x *ft.Exec, seed int64, ref int64, apnLinks bool, policies []ft.RecoveryPolicy, trials int, label string) (faultsCell, error) {
	deadline := faultsDeadline(x.Static())
	cell := faultsCell{stats: make([][]ft.Stats, len(faultsFactors))}
	for fi, factor := range faultsFactors {
		cell.stats[fi] = make([]ft.Stats, len(policies))
		for pi, pol := range policies {
			opts := ft.Options{
				Sim:      ft.SimOptions{Seed: seed},
				Faults:   faultsModel(factor, ref, apnLinks),
				Recovery: pol,
				Deadline: deadline,
			}
			st, err := ft.MonteCarlo(x, opts, trials)
			if err != nil {
				return faultsCell{}, fmt.Errorf("faults: %s: %w", label, err)
			}
			if factor == 0 && (st.Survived != trials || st.MeanRatio != 1) {
				return faultsCell{}, fmt.Errorf("faults: %s: fault-free anchor survived %d/%d trials with mean ratio %g, want all at 1",
					label, st.Survived, trials, st.MeanRatio)
			}
			cell.stats[fi][pi] = st
		}
	}
	return cell, nil
}

// faultsPolicies builds the recovery policies evaluated for one clique
// schedule: the checkpoint period is a sixteenth of the static
// makespan, the replication degree a tenth of the task count.
func faultsPolicies(static int64, numTasks int) []ft.RecoveryPolicy {
	return ft.Policies(max(1, static/16), max(1, numTasks/10))
}

// faultEffectiveTrials is the Monte-Carlo budget of FaultEffective.
const faultEffectiveTrials = 10

// FaultEffective measures one algorithm's schedule for g under the
// canonical fault scenario: crashes at MTBF equal to the graph's
// critical-path computation cost with 0.1x repairs (plus link outages
// for APN schedules), seed 1, reactive resubmit recovery for the
// clique classes (APN supports none), and a deadline of 1.5x the
// static makespan. It returns the fault-effective makespan — the mean
// over trials of the realized makespan, with unfinished or
// deadline-missing trials charged twice the deadline — the measure the
// adversarial fault-gap objective compares. BNP and PARAM algorithms
// receive bnpProcs processors; APN algorithms the topology.
func FaultEffective(a Algorithm, g *dag.Graph, bnpProcs int, topo *machine.Topology) (int64, error) {
	x, err := compileFT(a, g, bnpProcs, topo)
	if err != nil {
		return 0, err
	}
	apnClass := a.Class == APN
	ref := dag.CPComputationSum(g)
	deadline := faultsDeadline(x.Static())
	opts := ft.Options{
		Sim:      ft.SimOptions{Seed: 1},
		Faults:   faultsModel(1, ref, apnClass),
		Deadline: deadline,
	}
	if !apnClass {
		opts.Recovery = ft.Resubmit()
	}
	st, err := ft.MonteCarlo(x, opts, faultEffectiveTrials)
	if err != nil {
		return 0, err
	}
	miss := 2 * deadline
	var sum int64
	for _, mk := range st.Makespans {
		if mk < 0 || mk > deadline {
			sum += miss
		} else {
			sum += mk
		}
	}
	return sum / int64(len(st.Makespans)), nil
}

// compileFT schedules g with a on a homogeneous machine (bnpProcs
// processors for the clique classes, topo for APN) and compiles the
// schedule for execution, with or without faults.
func compileFT(a Algorithm, g *dag.Graph, bnpProcs int, topo *machine.Topology) (*ft.Exec, error) {
	cs, ms, err := a.schedule(g, bnpProcs, nil, topo)
	if err != nil {
		return nil, err
	}
	if ms != nil {
		return ft.CompileAPN(ms)
	}
	defer cs.Release()
	return ft.Compile(cs)
}

// faultsAgg accumulates survival rates, finished-trial ratios, and
// utilization fractions over a group of cells.
type faultsAgg struct {
	cells    int
	survival float64
	ratioSum float64
	ratioN   int
	busy     float64
	idle     float64
	down     float64
}

func (a *faultsAgg) add(st ft.Stats) {
	a.cells++
	a.survival += st.SurvivalRate
	if st.Finished > 0 {
		a.ratioSum += st.MeanRatio
		a.ratioN++
	}
	a.busy += st.MeanBusyFrac
	a.idle += st.MeanIdleFrac
	a.down += st.MeanDownFrac
}

// survPct returns the mean survival rate as a percentage.
func (a *faultsAgg) survPct() float64 { return 100 * a.survival / float64(a.cells) }

// cellText renders one aggregate as "surv% (mean ratio)".
func (a *faultsAgg) cellText() string {
	if a.ratioN == 0 {
		return fmt.Sprintf("%5.1f%% (-)", a.survPct())
	}
	return fmt.Sprintf("%5.1f%% (%.3f)", a.survPct(), a.ratioSum/float64(a.ratioN))
}

// Faults runs the fault-injection and recovery study: the BNP
// algorithms (clique model, 4 recovery policies) and the APN algorithms
// (hypercube with link contention, no recovery) over every registered
// generator family, Monte-Carlo executing each schedule while the
// processor MTBF sweeps from infinity down to a quarter of the
// instance's critical-path computation cost. Per policy it reports the
// degradation curve — deadline-survival probability and mean finished
// realized/static ratio per family and MTBF — then compares policies
// per algorithm at the harshest point. Failure traces are paired across
// algorithms and policies; output is deterministic in (seed, scale) and
// byte-identical for every worker count.
func Faults(cfg Config) error {
	fams, err := suiteCacheFor(cfg).robustSuite(cfg)
	if err != nil {
		return err
	}
	trials := faultsTrials(cfg.Scale)
	topo := apnTopology()
	bnpAlgs := ByClass(BNP)
	apnAlgs := ByClass(APN)
	apnPolicies := []ft.RecoveryPolicy{ft.None()}

	var p plan[faultsCell]
	for fi, fam := range fams {
		for gi, ng := range fam.graphs {
			seed := faultsSeed(cfg.Seed, fi, gi)
			ref := dag.CPComputationSum(ng.G)
			for _, a := range bnpAlgs {
				a, ng := a, ng
				label := fmt.Sprintf("%s(BNP) on %s", a.Name, ng.Name)
				procs := BNPProcs(ng.G.NumNodes())
				p.add(func() (faultsCell, error) {
					x, err := compileFT(a, ng.G, procs, nil)
					if err != nil {
						return faultsCell{}, fmt.Errorf("faults: %s: %w", label, err)
					}
					pols := faultsPolicies(x.Static(), ng.G.NumNodes())
					return runFaultsSweep(x, seed, ref, false, pols, trials, label)
				})
			}
			for _, a := range apnAlgs {
				a, ng := a, ng
				label := fmt.Sprintf("%s(APN) on %s", a.Name, ng.Name)
				p.add(func() (faultsCell, error) {
					x, err := compileFT(a, ng.G, 0, topo)
					if err != nil {
						return faultsCell{}, fmt.Errorf("faults: %s: %w", label, err)
					}
					return runFaultsSweep(x, seed, ref, true, apnPolicies, trials, label)
				})
			}
		}
	}
	results, err := p.run(cfg)
	if err != nil {
		return err
	}

	policyNames := ft.PolicyNames()
	fmt.Fprintf(cfg.Out, "model: fail-stop crashes (MTBF in multiples of the critical-path computation cost, repair 0.1x), APN adds link outages; deadline 1.5x static; %d trials/cell, paired failure traces\n",
		trials)

	// Replay the plan into per-group aggregates.
	byFamBNP := make([][][]faultsAgg, len(fams)) // [family][factor][policy]
	byFamAPN := make([][]faultsAgg, len(fams))   // [family][factor]
	byAlgBNP := make([][]faultsAgg, len(bnpAlgs))
	byAlgAPN := make([]faultsAgg, len(apnAlgs))
	var utilBNP faultsAgg // resubmit at the 1x sweep point
	for i := range fams {
		byFamBNP[i] = make([][]faultsAgg, len(faultsFactors))
		for fi := range faultsFactors {
			byFamBNP[i][fi] = make([]faultsAgg, len(policyNames))
		}
		byFamAPN[i] = make([]faultsAgg, len(faultsFactors))
	}
	for i := range bnpAlgs {
		byAlgBNP[i] = make([]faultsAgg, len(policyNames))
	}
	cur := cursor[faultsCell]{rs: results}
	for i := range fams {
		for range fams[i].graphs {
			for ai := range bnpAlgs {
				cell := cur.next()
				for fi := range faultsFactors {
					for pi := range policyNames {
						byFamBNP[i][fi][pi].add(cell.stats[fi][pi])
					}
				}
				for pi := range policyNames {
					byAlgBNP[ai][pi].add(cell.stats[faultsHarsh][pi])
				}
				utilBNP.add(cell.stats[2][1]) // factor 1x, resubmit
			}
			for ai := range apnAlgs {
				cell := cur.next()
				for fi := range faultsFactors {
					byFamAPN[i][fi].add(cell.stats[fi][0])
				}
				byAlgAPN[ai].add(cell.stats[faultsHarsh][0])
			}
		}
	}

	cols := []string{"family"}
	for _, f := range faultsFactors {
		cols = append(cols, "mtbf="+faultsFactorName(f))
	}
	for pi, pol := range policyNames {
		t := table.New(fmt.Sprintf("Deadline survival (mean finished ratio), BNP algorithms, recovery=%s", pol), cols...)
		for i, fam := range fams {
			row := []string{fam.name}
			for fi := range faultsFactors {
				row = append(row, byFamBNP[i][fi][pi].cellText())
			}
			t.AddRow(row...)
		}
		if err := t.Render(cfg.Out); err != nil {
			return err
		}
	}
	t := table.New(fmt.Sprintf("Deadline survival (mean finished ratio), APN algorithms on %s, recovery=none", topo.Name()), cols...)
	for i, fam := range fams {
		row := []string{fam.name}
		for fi := range faultsFactors {
			row = append(row, byFamAPN[i][fi].cellText())
		}
		t.AddRow(row...)
	}
	if err := t.Render(cfg.Out); err != nil {
		return err
	}

	harshName := faultsFactorName(faultsFactors[faultsHarsh])
	sumCols := []string{"algorithm"}
	sumCols = append(sumCols, policyNames...)
	t = table.New(fmt.Sprintf("Survival by recovery policy at mtbf=%s, BNP algorithms", harshName), sumCols...)
	for ai, a := range bnpAlgs {
		row := []string{a.Name}
		for pi := range policyNames {
			row = append(row, byAlgBNP[ai][pi].cellText())
		}
		t.AddRow(row...)
	}
	if err := t.Render(cfg.Out); err != nil {
		return err
	}

	// Class-level summary lines (parseable; pinned by the tests).
	var bnpLine [4]float64
	for pi := range policyNames {
		var agg faultsAgg
		for ai := range bnpAlgs {
			agg.survival += byAlgBNP[ai][pi].survival
			agg.cells += byAlgBNP[ai][pi].cells
		}
		bnpLine[pi] = agg.survPct()
	}
	fmt.Fprintf(cfg.Out, "BNP deadline survival at mtbf=%s: none=%.1f%% resubmit=%.1f%% checkpoint=%.1f%% replicate=%.1f%%\n",
		harshName, bnpLine[0], bnpLine[1], bnpLine[2], bnpLine[3])
	var apnAgg faultsAgg
	for ai := range apnAlgs {
		apnAgg.survival += byAlgAPN[ai].survival
		apnAgg.cells += byAlgAPN[ai].cells
	}
	fmt.Fprintf(cfg.Out, "APN deadline survival at mtbf=%s: none=%.1f%%\n", harshName, apnAgg.survPct())
	fmt.Fprintf(cfg.Out, "mean processor time at mtbf=1x (BNP, resubmit): busy=%.1f%% idle=%.1f%% down=%.1f%%\n",
		100*utilBNP.busy/float64(utilBNP.cells),
		100*utilBNP.idle/float64(utilBNP.cells),
		100*utilBNP.down/float64(utilBNP.cells))
	fmt.Fprintln(cfg.Out, "surv%: trials finishing within the deadline; ratio: realized/static makespan of the finished trials; (-): no trial finished")
	return nil
}
