package main

import (
	"repro/internal/algo/apn"
	"repro/internal/algo/bnp"
	"repro/internal/algo/param"
	"repro/internal/algo/unc"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/sched"
)

// algo is one of the 19 scheduling algorithms the benchmark runs: the
// 15 of the paper's registry and the four classic points of the
// parameterized space.
type algo struct {
	core.Algorithm
	span string // span name, "algo.<class>.<NAME>"
	// kernel schedules through the class package and keeps the schedule,
	// which core.Algorithm.Run measures and discards.
	kernel func(g *dag.Graph, procs int, topo *machine.Topology) (*sched.Schedule, *machine.Schedule, error)
}

// classicParams are the parameterized combos that reproduce the classic
// list schedulers.
var classicParams = []string{"HLFET", "MCP", "ETF", "DLS"}

// algorithms returns the 19 algorithms in registry order, then the
// classic param points.
func algorithms() []algo {
	bnps, uncs, apns := bnp.Algorithms(), unc.Algorithms(), apn.Algorithms()
	var out []algo
	for _, a := range core.All() {
		x := algo{Algorithm: a}
		switch a.Class {
		case core.BNP:
			k := bnps[a.Name]
			x.kernel = func(g *dag.Graph, procs int, _ *machine.Topology) (*sched.Schedule, *machine.Schedule, error) {
				s, err := k(g, procs)
				return s, nil, err
			}
		case core.UNC:
			k := uncs[a.Name]
			x.kernel = func(g *dag.Graph, _ int, _ *machine.Topology) (*sched.Schedule, *machine.Schedule, error) {
				s, err := k(g)
				return s, nil, err
			}
		case core.APN:
			k := apns[a.Name]
			x.kernel = func(g *dag.Graph, _ int, topo *machine.Topology) (*sched.Schedule, *machine.Schedule, error) {
				s, err := k(g, topo)
				return nil, s, err
			}
		}
		x.span = spanName(a.Class, a.Name)
		out = append(out, x)
	}
	for _, name := range classicParams {
		c, ok := param.Lookup(name)
		if !ok {
			panic("perfbench: param point " + name + " is not registered")
		}
		x := algo{Algorithm: core.ParamAlgorithm(c), span: spanName(core.PARAM, name)}
		x.kernel = func(g *dag.Graph, procs int, _ *machine.Topology) (*sched.Schedule, *machine.Schedule, error) {
			s, err := c.Schedule(g, procs, nil)
			return s, nil, err
		}
		out = append(out, x)
	}
	return out
}

func spanName(c core.Class, name string) string {
	return "algo." + classKey(c) + "." + name
}

func classKey(c core.Class) string {
	switch c {
	case core.BNP:
		return "bnp"
	case core.UNC:
		return "unc"
	case core.APN:
		return "apn"
	}
	return "param"
}

// procsFor is the processor count the algorithm's class gets on a graph
// of v nodes, as in the paper's experiments: BNPProcs(v) clique
// processors for BNP and PARAM, the 8-node hypercube for APN, and no
// bound for UNC (0).
func (a algo) procsFor(v int, topo *machine.Topology) int {
	switch a.Class {
	case core.UNC:
		return 0
	case core.APN:
		return topo.NumProcs()
	}
	return core.BNPProcs(v)
}
