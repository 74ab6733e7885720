package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"repro/internal/algo/bnp"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/sim"
)

const (
	millionNodes = 1_000_000
	millionProcs = 32
	warmNodes    = 1 << 16 // pipeline size of the set-up warm-up slice
)

// cappedRun is one algorithm of the scaling experiment at its size cap.
type cappedRun struct {
	a  algo
	g  *dag.Graph
	lb int64
}

// million is the streaming 10^6-node pipeline — generate, .tgb encode,
// decode, levels, HLFET on 32 processors, Validate, zero-variance sim
// replay — plus ISH, LAST and DSC at 16k nodes and MCP at 4k, the
// scaling experiment's caps, on the same layered family. One op is one
// node carried through.
type million struct {
	seed   int64
	nodes  int // pipeline graph size: millionNodes, smaller in tests
	algs   []algo
	topo   *machine.Topology
	capped []cappedRun
	buf    bytes.Buffer // .tgb encoding, reused across rounds
}

// layeredParams are the scaling experiment's layered-family parameters:
// p = 4/sqrt(v), so E is about 4V.
func layeredParams(v int) gen.Params {
	return gen.Params{"v": strconv.Itoa(v), "p": fmt.Sprintf("%g", math.Min(1, 4/math.Sqrt(float64(v))))}
}

func setupMillion(seed int64, tr *tracer) (body, error) {
	m := &million{seed: seed, nodes: millionNodes, algs: algorithms(), topo: machine.Hypercube(3)}
	caps := map[string]int{"ISH": 16_000, "LAST": 16_000, "DSC": 16_000, "MCP": 4_000}
	graphs := map[int]*dag.Graph{}
	for _, a := range m.algs {
		v, ok := caps[a.Name]
		if !ok || a.Class == core.PARAM {
			continue
		}
		g := graphs[v]
		if g == nil {
			id := tr.begin("gen.layered")
			var err error
			g, err = gen.Generate("layered", seed+int64(v), layeredParams(v))
			tr.end(id, int64(v))
			if err != nil {
				return nil, fmt.Errorf("million: layered v=%d: %w", v, err)
			}
			graphs[v] = g
		}
		id := tr.begin("dag.levels")
		lb := lowerBound(g, a.procsFor(v, m.topo))
		tr.end(id, 0)
		m.capped = append(m.capped, cappedRun{a: a, g: g, lb: lb})
	}
	// Warm-up slice: the pipeline on a small graph, and MCP at its cap.
	var o outcome
	if m.pipeline(nil, warmNodes, newDigester(), &o); o.failed > 0 {
		return nil, fmt.Errorf("million: warm-up pipeline failed")
	}
	for _, c := range m.capped {
		if c.a.Name == "MCP" {
			if _, err := c.a.Run(c.g, millionProcs, m.topo); err != nil {
				return nil, fmt.Errorf("million: warm-up %s: %w", c.a.span, err)
			}
		}
	}
	return m, nil
}

func (m *million) round(tr *tracer) outcome {
	var o outcome
	d := newDigester()
	var nsl geoMean
	nsl.add(m.pipeline(tr, m.nodes, d, &o))
	for _, c := range m.capped {
		id := tr.begin(c.a.span)
		res, err := c.a.Run(c.g, millionProcs, m.topo)
		tr.end(id, 0)
		o.ops += int64(c.g.NumNodes())
		if err != nil || res.Length < c.lb {
			o.failed += int64(c.g.NumNodes())
			res.Length = -1
		}
		nsl.add(res.NSL)
		d.int(res.Length)
	}
	o.digest = d.sum()
	o.meanNSL = nsl.value()
	return o
}

// pipeline carries one v-node layered graph through every layer,
// checking the .tgb round trip, Validate, the lower bound and the
// replay as it goes. It returns the HLFET schedule's NSL.
func (m *million) pipeline(tr *tracer, v int, d digester, o *outcome) float64 {
	o.ops += int64(v)
	fail := func() float64 { o.failed += int64(v); return 0 }

	id := tr.begin("gen.layered")
	g, err := gen.Generate("layered", m.seed, layeredParams(v))
	tr.end(id, int64(v))
	if err != nil {
		return fail()
	}
	e, sum := g.NumEdges(), graphSum(g)
	m.buf.Reset()
	id = tr.begin("dag.encode")
	err = dag.WriteBinary(&m.buf, g)
	tr.end(id, int64(v))
	if err != nil {
		return fail()
	}
	// The generated graph is dead from here on: the rest of the pipeline
	// works on the decoded copy, as a reader of the file would.
	size := int64(m.buf.Len())
	id = tr.begin("dag.decode")
	g, err = dag.ReadBinary(bytes.NewReader(m.buf.Bytes()))
	tr.end(id, size)
	if err != nil || sameGraph(g, v, e, sum) != nil {
		return fail()
	}

	id = tr.begin("dag.levels")
	cp := dag.CPComputationSum(g)
	tr.end(id, 0)
	lb := max(cp, (g.TotalComputation()+millionProcs-1)/millionProcs)
	id = tr.begin("algo.bnp.HLFET")
	s, err := bnp.HLFET(g, millionProcs)
	tr.end(id, 0)
	if err != nil {
		return fail()
	}
	defer s.Release()
	id = tr.begin("sched.validate")
	err = s.Validate()
	tr.end(id, 0)
	if err != nil || s.Makespan() < lb {
		return fail()
	}
	id = tr.begin("sim.compile")
	plan, err := sim.Compile(s)
	tr.end(id, 0)
	if err != nil {
		return fail()
	}
	id = tr.begin("sim.run")
	replay, err := plan.Run(sim.Options{}, 0)
	tr.end(id, 1)
	if err != nil || replayMismatch(s.Makespan(), replay) != nil {
		return fail()
	}
	d.int(int64(v))
	d.int(int64(e))
	d.int(size)
	d.int(s.Makespan())
	return float64(s.Makespan()) / float64(cp)
}

func (m *million) check(tr *tracer, c *checks) {
	seen := map[*dag.Graph]bool{}
	for _, r := range m.capped {
		if !seen[r.g] {
			seen[r.g] = true
			verifyGraph(tr, c, fmt.Sprintf("layered v=%d", r.g.NumNodes()), r.g)
		}
		verifyAlgo(tr, c, "check.schedule", fmt.Sprintf("%s at v=%d", r.a.span, r.g.NumNodes()), r.a, r.g, m.topo)
	}
	canary(tr, c, m.algs, m.topo, gen.PeerSet()[0].G)
}
