// Package core is the evaluation engine of the reproduction: the
// registry of all 15 scheduling algorithms with their classes, the
// measures of paper section 6 (schedule length, NSL, percentage
// degradation from optimal, processors used, running time), and the
// experiment runners that regenerate every table and figure of the
// evaluation.
package core

import (
	"fmt"
	"time"

	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/algo/param"
	"repro/internal/algo/unc"
	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Class identifies an algorithm family from the paper's taxonomy.
type Class string

// The three algorithm classes compared by the paper (section 4), plus
// the parameterized component combinations of internal/algo/param.
const (
	BNP   Class = "BNP"   // bounded number of processors, clique
	UNC   Class = "UNC"   // unbounded number of clusters, clique
	APN   Class = "APN"   // arbitrary processor network with link contention
	PARAM Class = "PARAM" // parameterized component combination (clique, bounded processors)
)

// Algorithm is one registered scheduler.
type Algorithm struct {
	Name  string
	Class Class

	kernel kernel
}

// kernel builds one schedule of g: on procs clique processors (BNP,
// PARAM; UNC algorithms size their own machine) or on topo (APN), with
// per-processor speeds or nil for the homogeneous model. Clique classes
// return a *sched.Schedule, APN algorithms a *machine.Schedule.
type kernel func(g *dag.Graph, procs int, speeds []float64, topo *machine.Topology) (*sched.Schedule, *machine.Schedule, error)

// schedule runs the algorithm's kernel. On success exactly one of the
// two schedules is non-nil: the *machine.Schedule for APN algorithms,
// the *sched.Schedule otherwise.
func (a Algorithm) schedule(g *dag.Graph, procs int, speeds []float64, topo *machine.Topology) (*sched.Schedule, *machine.Schedule, error) {
	switch {
	case a.kernel == nil:
		return nil, nil, fmt.Errorf("core: unknown class %q", a.Class)
	case a.Class == APN && topo == nil:
		return nil, nil, fmt.Errorf("core: APN algorithm %s needs a topology", a.Name)
	}
	return a.kernel(g, procs, speeds, topo)
}

// Result is one measured scheduling run.
type Result struct {
	Algorithm string
	Class     Class
	Length    int64
	NSL       float64
	Procs     int // processors actually used
	Elapsed   time.Duration
}

// Run schedules g with the algorithm and measures the run. BNP
// algorithms receive bnpProcs processors; APN algorithms receive the
// topology; UNC algorithms need no machine argument. The machine is
// homogeneous; use RunOn for heterogeneous processor speeds.
func (a Algorithm) Run(g *dag.Graph, bnpProcs int, topo *machine.Topology) (Result, error) {
	return a.RunOn(g, bnpProcs, nil, topo)
}

// RunOn schedules g with the algorithm on a machine with the given
// per-processor speed vector and measures the run. A nil speeds vector
// selects the homogeneous model and reproduces Run exactly. For BNP and
// PARAM algorithms speeds must have bnpProcs entries; for APN
// algorithms it must match the topology's processor count; UNC
// algorithms choose their own processor count (up to one per node), so
// speeds must cover g.NumNodes() processors.
func (a Algorithm) RunOn(g *dag.Graph, bnpProcs int, speeds []float64, topo *machine.Topology) (Result, error) {
	if t := obs.ActiveTracer(); t != nil {
		procs := bnpProcs
		switch a.Class {
		case UNC:
			procs = g.NumNodes()
		case APN:
			if topo != nil {
				procs = topo.NumProcs()
			}
		}
		// Bracketing the run here (rather than in the kernels) keeps
		// bulk placements outside RunOn — branch-and-bound optimal
		// probes, fault-repair passes — out of the trace.
		t.BeginRun(a.Name, string(a.Class), g.NumNodes(), procs)
		defer t.EndRun()
	}
	algRuns.Inc()
	start := time.Now()
	cs, ms, err := a.schedule(g, bnpProcs, speeds, topo)
	if err != nil {
		return Result{}, err
	}
	res := Result{Algorithm: a.Name, Class: a.Class}
	if ms != nil {
		res.Length, res.NSL, res.Procs = ms.Makespan(), ms.NSL(), ms.ProcessorsUsed()
	} else {
		res.Length, res.NSL, res.Procs = cs.Makespan(), cs.NSL(), cs.ProcessorsUsed()
		// The schedule is measured and discarded; recycling it lets the
		// next cell on this worker run without allocating one.
		cs.Release()
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// All returns the 15 algorithms of the study in the paper's order:
// the 6 BNP, then the 5 UNC, then the 4 APN algorithms. (DLS appears in
// both the BNP and APN classes, as in the paper.)
func All() []Algorithm {
	out := make([]Algorithm, 0, 15)
	out = append(out, ByClass(BNP)...)
	out = append(out, ByClass(UNC)...)
	out = append(out, ByClass(APN)...)
	return out
}

// ByClass returns the algorithms of one class in canonical order, the
// order of the class package's table.
func ByClass(c Class) []Algorithm {
	switch c {
	case BNP:
		return named(bnpAlgorithm, bnp.Names())
	case UNC:
		return named(uncAlgorithm, unc.Names())
	case APN:
		return named(apnAlgorithm, apn.Names())
	}
	return nil
}

// ParamAlgorithm wraps one component combination of the parameterized
// scheduler space (internal/algo/param) as a registry Algorithm of
// class PARAM, named by its canonical combo name. It runs on bnpProcs
// processors, homogeneous or heterogeneous, like a BNP algorithm.
func ParamAlgorithm(c param.Combo) Algorithm {
	return Algorithm{Name: c.Name(), Class: PARAM, kernel: func(g *dag.Graph, procs int, speeds []float64, _ *machine.Topology) (*sched.Schedule, *machine.Schedule, error) {
		s, err := c.Schedule(g, procs, speeds)
		return s, nil, err
	}}
}

// named builds the algorithms of one class, in the given order.
func named(mk func(name string) Algorithm, names []string) []Algorithm {
	out := make([]Algorithm, len(names))
	for i, name := range names {
		out[i] = mk(name)
	}
	return out
}

// bnpAlgorithm, uncAlgorithm and apnAlgorithm register the named
// algorithm of their class. Each runs through the class's ScheduleHet,
// the only entry path of every algorithm.
func bnpAlgorithm(name string) Algorithm {
	return Algorithm{Name: name, Class: BNP, kernel: func(g *dag.Graph, procs int, speeds []float64, _ *machine.Topology) (*sched.Schedule, *machine.Schedule, error) {
		s, err := bnp.ScheduleHet(name, g, procs, speeds)
		return s, nil, err
	}}
}

func uncAlgorithm(name string) Algorithm {
	return Algorithm{Name: name, Class: UNC, kernel: func(g *dag.Graph, _ int, speeds []float64, _ *machine.Topology) (*sched.Schedule, *machine.Schedule, error) {
		s, err := unc.ScheduleHet(name, g, speeds)
		return s, nil, err
	}}
}

func apnAlgorithm(name string) Algorithm {
	return Algorithm{Name: name, Class: APN, kernel: func(g *dag.Graph, _ int, speeds []float64, topo *machine.Topology) (*sched.Schedule, *machine.Schedule, error) {
		s, err := apn.ScheduleHet(name, g, topo, speeds)
		return nil, s, err
	}}
}

// Parameterized returns the full component cross-product of the
// parameterized scheduler space (currently 60 combinations) as
// Algorithms, in the fixed order of param.Combos.
func Parameterized() []Algorithm {
	combos := param.Combos()
	out := make([]Algorithm, len(combos))
	for i, c := range combos {
		out[i] = ParamAlgorithm(c)
	}
	return out
}

// Names returns the algorithm names of a class in canonical order.
func Names(c Class) []string {
	algs := ByClass(c)
	names := make([]string, len(algs))
	for i, a := range algs {
		names[i] = a.Name
	}
	return names
}

// BNPProcs returns the processor count used when running BNP algorithms
// on a graph of v nodes: the paper tested BNP algorithms "with a very
// large number (virtually unlimited number) of processors" and then
// recorded how many were used (section 6.4.2). 32 processors is
// effectively unlimited for the benchmark workloads while keeping the
// O(v^2 p) algorithms (ETF, DLS) tractable.
func BNPProcs(v int) int {
	if v < 32 {
		return v
	}
	return 32
}
