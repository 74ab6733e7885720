package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/ft"
	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// faultFactors is the MTBF sweep of the faults study, as multiples of
// an instance's critical-path computation sum; 0 is MTBF infinity.
var faultFactors = []float64{0, 4, 1, 0.25}

const (
	faultTrials = 2  // ft.MonteCarlo trials per (schedule, MTBF, policy)
	simTrials   = 10 // lognormal sim.MonteCarlo trials per schedule
)

// faultCell is one schedule compiled for fault-injected and perturbed
// execution.
type faultCell struct {
	label string
	x     *ft.Exec
	plan  *sim.Plan
	pols  []ft.RecoveryPolicy
	ref   int64 // critical-path computation sum: MTBF unit and NSL denominator
	seed  int64 // per-instance seed, shared by every algorithm (paired traces)
	apn   bool
	// The schedule itself, kept for the checks.
	cs *sched.Schedule
	ms *machine.Schedule
	lb int64
}

// faults is a reduced cell set of the quick faults and robust
// experiments: every registered family's robust instances, each BNP
// schedule run through ft.MonteCarlo under the four recovery policies
// across the MTBF sweep, each APN schedule under crashes plus link
// outages, and lognormal sim.MonteCarlo trials for both. One op is one
// simulated execution.
type faults struct {
	algs   []algo // the full roster, for the checks' canary
	topo   *machine.Topology
	graphs []gen.NamedGraph
	cells  []faultCell
}

func setupFaults(seed int64, tr *tracer) (body, error) {
	f := &faults{algs: algorithms(), topo: machine.Hypercube(3)}
	for fi, fam := range gen.Generators() {
		if !fam.Random {
			// One default instance of each fixed-shape family. Its seed is
			// fixed too: rgpos, the one such family that draws from it, can
			// yield a schedule several times costlier to execute under
			// faults than any other instance, which would swing a run's
			// cost from seed to seed.
			params := gen.Params{}
			if fam.Name == "psg" {
				params["name"] = "kwok-ahmad-9"
			}
			if err := f.addGraph(tr, fam.Name, fam.Name+"-default", 1, params); err != nil {
				return nil, err
			}
			continue
		}
		// The robust experiment's quick (v, CCR) grid, one instance a point.
		for _, v := range []int{40, 80} {
			for ci, ccr := range []float64{0.5, 2} {
				s := seed + int64(fi+1)*1_000_003 + int64(v)*7_919 + int64(ci+1)*104_729
				params := gen.Params{"v": fmt.Sprint(v), "ccr": fmt.Sprint(ccr)}
				if err := f.addGraph(tr, fam.Name, fmt.Sprintf("%s-v%d-ccr%g", fam.Name, v, ccr), s, params); err != nil {
					return nil, err
				}
			}
		}
	}
	for gi, ng := range f.graphs {
		id := tr.begin("dag.levels")
		ref := dag.CPComputationSum(ng.G)
		tr.end(id, 0)
		for _, a := range f.algs {
			if a.Class != core.BNP && a.Class != core.APN {
				continue
			}
			cell, err := f.compile(tr, a, ng, ref, seed+int64(gi+1)*2_000_003)
			if err != nil {
				return nil, err
			}
			f.cells = append(f.cells, cell)
		}
	}
	// Warm-up slice: the cells of the first instance.
	f.runCells(nil, f.cells[:len(f.cells)/len(f.graphs)])
	return f, nil
}

func (f *faults) addGraph(tr *tracer, family, name string, seed int64, params gen.Params) error {
	id := tr.begin("gen." + family)
	g, err := gen.Generate(family, seed, params)
	if err != nil {
		tr.end(id, 0)
		return fmt.Errorf("faults: %s: %w", name, err)
	}
	tr.end(id, int64(g.NumNodes()))
	f.graphs = append(f.graphs, gen.NamedGraph{Name: name, G: g})
	return nil
}

// compile schedules one instance with a BNP or APN algorithm and
// compiles the schedule for ft and sim.
func (f *faults) compile(tr *tracer, a algo, ng gen.NamedGraph, ref, seed int64) (faultCell, error) {
	c := faultCell{label: a.span + " on " + ng.Name, ref: ref, seed: seed, apn: a.Class == core.APN}
	procs := a.procsFor(ng.G.NumNodes(), f.topo)
	c.lb = lowerBound(ng.G, procs)
	id := tr.begin(a.span)
	cs, ms, err := a.kernel(ng.G, procs, f.topo)
	tr.end(id, 0)
	if err != nil {
		return c, fmt.Errorf("faults: %s: %w", c.label, err)
	}
	c.cs, c.ms = cs, ms
	id = tr.begin("ft.compile")
	if c.apn {
		c.x, err = ft.CompileAPN(ms)
		c.pols = []ft.RecoveryPolicy{ft.None()}
	} else {
		c.x, err = ft.Compile(cs)
		c.pols = ft.Policies(max(1, cs.Makespan()/16), max(1, ng.G.NumNodes()/10))
	}
	tr.end(id, 0)
	if err != nil {
		return c, fmt.Errorf("faults: %s: %w", c.label, err)
	}
	id = tr.begin("sim.compile")
	if c.apn {
		c.plan, err = sim.CompileAPN(ms)
	} else {
		c.plan, err = sim.Compile(cs)
	}
	tr.end(id, 0)
	if err != nil {
		return c, fmt.Errorf("faults: %s: %w", c.label, err)
	}
	return c, nil
}

// faultModel is the faults study's failure model at one sweep point:
// crashes at MTBF factor x ref with 0.1 x ref repairs, plus link
// outages for APN schedules.
func faultModel(factor float64, ref int64, apnLinks bool) sim.FaultModel {
	if factor == 0 {
		return sim.FaultModel{}
	}
	mtbf := max(1, int64(factor*float64(ref)+0.5))
	m := sim.FaultModel{MTBF: mtbf, MeanRepair: max(1, ref/10)}
	if apnLinks {
		m.LinkMTBF, m.MeanOutage = mtbf, max(1, ref/20)
	}
	return m
}

func (f *faults) round(tr *tracer) outcome { return f.runCells(tr, f.cells) }

func (f *faults) runCells(tr *tracer, cells []faultCell) outcome {
	var o outcome
	d := newDigester()
	var nsl geoMean
	perturb := sim.Options{Perturb: sim.Perturbation{Dist: sim.DistLognormal, TaskSpread: 0.3, CommSpread: 0.3}}
	for _, c := range cells {
		for _, factor := range faultFactors {
			for _, pol := range c.pols {
				opts := ft.Options{
					Sim:      sim.Options{Seed: c.seed},
					Faults:   faultModel(factor, c.ref, c.apn),
					Recovery: pol,
					Deadline: deadline(c.x.Static()),
				}
				id := tr.begin("ft." + pol.Name())
				st, err := ft.MonteCarlo(c.x, opts, faultTrials)
				tr.end(id, faultTrials)
				o.ops += faultTrials
				if err != nil || (factor == 0 && (st.Survived != faultTrials || st.MeanRatio != 1)) {
					o.failed += faultTrials
					continue
				}
				if factor > 0 {
					o.survived += int64(st.Survived)
					o.faulty += faultTrials
				}
				d.int(int64(st.Survived))
				d.int(int64(st.Finished))
				for _, mk := range st.Makespans {
					d.int(mk)
				}
			}
		}
		perturb.Seed = c.seed
		id := tr.begin("sim.run")
		st, err := sim.MonteCarlo(c.plan, perturb, simTrials)
		tr.end(id, simTrials)
		o.ops += simTrials
		if err != nil {
			o.failed += simTrials
			continue
		}
		nsl.add(st.MeanMakespan / float64(c.ref))
		d.float(st.MeanMakespan)
		d.int(st.MaxMakespan)
	}
	o.digest = d.sum()
	o.meanNSL = nsl.value()
	return o
}

func (f *faults) check(tr *tracer, c *checks) {
	for _, ng := range f.graphs {
		verifyGraph(tr, c, ng.Name, ng.G)
	}
	for _, cell := range f.cells {
		if cell.apn {
			verifyAPN(tr, c, cell.label, cell.ms, cell.lb)
		} else {
			verifyClique(tr, c, cell.label, cell.cs, cell.lb)
		}
	}
	canary(tr, c, f.algs, f.topo, gen.PeerSet()[0].G)
}
