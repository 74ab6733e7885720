package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/machine"
)

// paperGrid is the paper's own evaluation at quick scale: the 19
// algorithms over the RGNOS grid of Table 6 and Figure 2 (two instances
// a point), the peer set
// graphs of Table 1 and the Cholesky graphs of Figure 4. One op is one
// schedule, computed by core.Algorithm.Run.
type paperGrid struct {
	algs   []algo
	topo   *machine.Topology
	graphs []gen.NamedGraph
	lb     [][]int64 // [graph][algorithm] makespan lower bound
	// lengths holds the makespans of the latest round, [graph][algorithm],
	// for the checks to compare the class kernels against.
	lengths [][]int64
}

func setupPaperGrid(seed int64, tr *tracer) (body, error) {
	p := &paperGrid{algs: algorithms(), topo: machine.Hypercube(3)}
	// Two instances of each RGNOS grid point: with one, the grid's mean
	// NSL moves by several percent from seed to seed.
	var rgnos []gen.NamedGraph
	for i := int64(0); i < 2; i++ {
		id := tr.begin("gen.rgnos")
		suite := gen.RGNOS(gen.RGNOSConfig{
			MinNodes: 50, MaxNodes: 150, Step: 50,
			CCRs:        []float64{0.1, 1, 10},
			Parallelism: []int{1, 3, 5},
			Seed:        seed + i*1_000_003,
		})
		tr.end(id, nodes(suite))
		rgnos = append(rgnos, suite...)
	}
	id := tr.begin("gen.psg")
	psg := gen.PeerSet()
	tr.end(id, nodes(psg))
	p.graphs = append(rgnos, psg...)
	for _, n := range []int{6, 10, 14} {
		id = tr.begin("gen.cholesky")
		g, err := gen.Cholesky(n, 1.0)
		tr.end(id, int64(g.NumNodes()))
		if err != nil {
			return nil, fmt.Errorf("paper-grid: cholesky %d: %w", n, err)
		}
		p.graphs = append(p.graphs, gen.NamedGraph{Name: fmt.Sprintf("cholesky-%d", n), G: g})
	}
	p.lb = make([][]int64, len(p.graphs))
	p.lengths = make([][]int64, len(p.graphs))
	for gi, ng := range p.graphs {
		id = tr.begin("dag.levels")
		for _, a := range p.algs {
			p.lb[gi] = append(p.lb[gi], lowerBound(ng.G, a.procsFor(ng.G.NumNodes(), p.topo)))
		}
		tr.end(id, 0)
		p.lengths[gi] = make([]int64, len(p.algs))
	}
	// Warm-up slice: every algorithm once on the first peer set graph.
	for _, a := range p.algs {
		g := psg[0].G
		if _, err := a.Run(g, core.BNPProcs(g.NumNodes()), p.topo); err != nil {
			return nil, fmt.Errorf("paper-grid: warm-up %s: %w", a.span, err)
		}
	}
	return p, nil
}

func nodes(gs []gen.NamedGraph) int64 {
	var n int64
	for _, ng := range gs {
		n += int64(ng.G.NumNodes())
	}
	return n
}

func (p *paperGrid) round(tr *tracer) outcome {
	var o outcome
	d := newDigester()
	var nsl geoMean
	for gi, ng := range p.graphs {
		procs := core.BNPProcs(ng.G.NumNodes())
		for ai, a := range p.algs {
			id := tr.begin(a.span)
			res, err := a.Run(ng.G, procs, p.topo)
			tr.end(id, 0)
			o.ops++
			if err != nil || res.Length < p.lb[gi][ai] {
				o.failed++
				res.Length = -1
			}
			p.lengths[gi][ai] = res.Length
			nsl.add(res.NSL)
			d.int(res.Length)
			d.int(int64(res.Procs))
		}
	}
	o.digest = d.sum()
	o.meanNSL = nsl.value()
	return o
}

func (p *paperGrid) check(tr *tracer, c *checks) {
	for gi, ng := range p.graphs {
		verifyGraph(tr, c, ng.Name, ng.G)
		for ai, a := range p.algs {
			label := a.span + " on " + ng.Name
			if mk := verifyAlgo(tr, c, "check.schedule", label, a, ng.G, p.topo); mk != p.lengths[gi][ai] {
				c.fail("%s: class kernel makespan %d, core.Algorithm.Run gave %d", label, mk, p.lengths[gi][ai])
			}
		}
	}
}
