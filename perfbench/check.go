package main

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/ft"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// checks accumulates output-check failures. None of the checks depends
// on the seed: each holds for every valid input.
type checks struct {
	failed int64
	msgs   []string // the first few failure messages
	// Fault-free ft executions the checks ran, and how many of them met
	// the survival deadline.
	ffRuns, ffSurvived int64
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// placement is a schedule reduced to its (processor, start, finish)
// triples, plus the committed link hops of an APN schedule, so that
// feasibility is recomputed without trusting the scheduler's own
// bookkeeping.
type placement struct {
	g        *dag.Graph
	procs    int
	proc     []int32
	start    []int64
	finish   []int64
	makespan int64
	// hops lists the link reservations of the message on one edge; nil
	// selects the clique model, where a remote edge costs its weight.
	hops func(parent, child dag.NodeID, fn func(machine.LinkHop))
}

func cliquePlacement(s *sched.Schedule) placement {
	pl := newPlacement(s.Graph(), s.NumProcs(), s.Makespan())
	for v := range pl.proc {
		n := dag.NodeID(v)
		pl.proc[v], pl.start[v], pl.finish[v] = int32(s.ProcOf(n)), s.StartOf(n), s.FinishOf(n)
	}
	return pl
}

func apnPlacement(s *machine.Schedule) placement {
	pl := newPlacement(s.Graph(), s.NumProcs(), s.Makespan())
	for v := range pl.proc {
		n := dag.NodeID(v)
		pl.proc[v], pl.start[v], pl.finish[v] = int32(s.ProcOf(n)), s.StartOf(n), s.FinishOf(n)
	}
	pl.hops = s.EachMessageHop
	return pl
}

func newPlacement(g *dag.Graph, procs int, makespan int64) placement {
	n := g.NumNodes()
	return placement{g: g, procs: procs, makespan: makespan,
		proc: make([]int32, n), start: make([]int64, n), finish: make([]int64, n)}
}

type interval struct {
	start, finish int64
}

// overlapping reports whether two intervals of positive length share
// time; zero-length work never conflicts.
func overlapping(iv []interval) bool {
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var end int64
	for i, x := range iv {
		if x.finish == x.start {
			continue
		}
		if i > 0 && x.start < end {
			return true
		}
		end = max(end, x.finish)
	}
	return false
}

// feasible checks the placement on a homogeneous machine: every task
// placed once with its full weight, no two tasks (or two messages on
// one directed link) overlapping, every task starting after the data
// of each parent arrives, and the makespan equal to the last finish.
func (pl placement) feasible() error {
	g := pl.g
	perProc := make([][]interval, pl.procs)
	var last int64
	for v := 0; v < g.NumNodes(); v++ {
		n := dag.NodeID(v)
		p := int(pl.proc[v])
		if p < 0 || p >= pl.procs {
			return fmt.Errorf("node %d on processor %d of %d", v, p, pl.procs)
		}
		if pl.start[v] < 0 || pl.finish[v]-pl.start[v] != g.Weight(n) {
			return fmt.Errorf("node %d runs [%d,%d) for weight %d", v, pl.start[v], pl.finish[v], g.Weight(n))
		}
		perProc[p] = append(perProc[p], interval{pl.start[v], pl.finish[v]})
		last = max(last, pl.finish[v])
	}
	for p, iv := range perProc {
		if overlapping(iv) {
			return fmt.Errorf("processor %d runs two tasks at once", p)
		}
	}
	if last != pl.makespan {
		return fmt.Errorf("makespan %d, last finish %d", pl.makespan, last)
	}
	links := map[[2]int][]interval{}
	for v := 0; v < g.NumNodes(); v++ {
		child := dag.NodeID(v)
		for _, a := range g.Preds(child) {
			ready, err := pl.arrival(a.To, child, a.Weight, links)
			if err != nil {
				return err
			}
			if pl.start[child] < ready {
				return fmt.Errorf("node %d starts at %d before data from %d arrives at %d", child, pl.start[child], a.To, ready)
			}
		}
	}
	for ch, iv := range links {
		if overlapping(iv) {
			return fmt.Errorf("link %d->%d carries two messages at once", ch[0], ch[1])
		}
	}
	return nil
}

// arrival returns when the data of edge parent → child is available on
// the child's processor, collecting APN link reservations into links.
func (pl placement) arrival(parent, child dag.NodeID, w int64, links map[[2]int][]interval) (int64, error) {
	src, dst := pl.proc[parent], pl.proc[child]
	ready := pl.finish[parent]
	if src == dst || w == 0 {
		return ready, nil
	}
	if pl.hops == nil {
		return ready + w, nil
	}
	at, hops := int(src), 0
	var err error
	pl.hops(parent, child, func(h machine.LinkHop) {
		if err != nil {
			return
		}
		switch {
		case h.From != at:
			err = fmt.Errorf("edge %d->%d: hop leaves processor %d, data is on %d", parent, child, h.From, at)
		case h.Start < ready:
			err = fmt.Errorf("edge %d->%d: hop starts at %d before data is ready at %d", parent, child, h.Start, ready)
		case h.Finish-h.Start != w:
			err = fmt.Errorf("edge %d->%d: hop lasts %d for cost %d", parent, child, h.Finish-h.Start, w)
		}
		links[[2]int{h.From, h.To}] = append(links[[2]int{h.From, h.To}], interval{h.Start, h.Finish})
		at, ready = h.To, h.Finish
		hops++
	})
	if err == nil && (hops == 0 || at != int(dst)) {
		err = fmt.Errorf("edge %d->%d: %d hops end on processor %d, child is on %d", parent, child, hops, at, dst)
	}
	return ready, err
}

// lowerBound is the makespan no schedule of g can beat: the computation
// on a critical path and, on procs bounded processors (procs > 0), the
// total work spread evenly.
func lowerBound(g *dag.Graph, procs int) int64 {
	lb := dag.CPComputationSum(g)
	if procs > 0 {
		w := g.TotalComputation()
		lb = max(lb, (w+int64(procs)-1)/int64(procs))
	}
	return lb
}

// replayMismatch reports a zero-variance replay that did not reproduce
// the static makespan.
func replayMismatch(static, replayed int64) error {
	if replayed != static {
		return fmt.Errorf("zero-variance replay gives %d, static makespan is %d", replayed, static)
	}
	return nil
}

// verifyClique runs every schedule-level check on a clique schedule:
// independent feasibility, sched.Validate, the lower bound, a
// zero-variance sim replay, and a fault-free ft execution under each
// recovery policy.
func verifyClique(tr *tracer, c *checks, label string, s *sched.Schedule, lb int64) {
	if err := cliquePlacement(s).feasible(); err != nil {
		c.fail("%s: %v", label, err)
	}
	id := tr.begin("sched.validate")
	err := s.Validate()
	tr.end(id, 0)
	if err != nil {
		c.fail("%s: %v", label, err)
	}
	id = tr.begin("sim.compile")
	plan, err := sim.Compile(s)
	tr.end(id, 0)
	if err != nil {
		c.fail("%s: %v", label, err)
		return
	}
	verifyReplay(tr, c, label, plan, s.Makespan(), lb)
	id = tr.begin("ft.compile")
	x, err := ft.Compile(s)
	tr.end(id, 0)
	if err != nil {
		c.fail("%s: %v", label, err)
		return
	}
	for _, pol := range ft.Policies(max(1, s.Makespan()/16), max(1, s.Graph().NumNodes()/10)) {
		verifyFaultFree(tr, c, label, x, pol)
	}
}

// verifyAPN is verifyClique for an APN schedule, plus a count of its
// message hops; ft supports only the none policy there.
func verifyAPN(tr *tracer, c *checks, label string, s *machine.Schedule, lb int64) {
	if err := apnPlacement(s).feasible(); err != nil {
		c.fail("%s: %v", label, err)
	}
	id := tr.begin("machine.hops")
	g := s.Graph()
	var hops int64
	for v := 0; v < g.NumNodes(); v++ {
		for _, a := range g.Succs(dag.NodeID(v)) {
			s.EachMessageHop(dag.NodeID(v), a.To, func(machine.LinkHop) { hops++ })
		}
	}
	tr.end(id, hops)
	id = tr.begin("sched.validate")
	err := s.Validate()
	tr.end(id, 0)
	if err != nil {
		c.fail("%s: %v", label, err)
	}
	id = tr.begin("sim.compile")
	plan, err := sim.CompileAPN(s)
	tr.end(id, 0)
	if err != nil {
		c.fail("%s: %v", label, err)
		return
	}
	verifyReplay(tr, c, label, plan, s.Makespan(), lb)
	id = tr.begin("ft.compile")
	x, err := ft.CompileAPN(s)
	tr.end(id, 0)
	if err != nil {
		c.fail("%s: %v", label, err)
		return
	}
	verifyFaultFree(tr, c, label, x, ft.None())
}

func verifyReplay(tr *tracer, c *checks, label string, plan *sim.Plan, static, lb int64) {
	if static < lb {
		c.fail("%s: makespan %d below the lower bound %d", label, static, lb)
	}
	id := tr.begin("sim.run")
	got, err := plan.Run(sim.Options{}, 0)
	tr.end(id, 1)
	if err == nil {
		err = replayMismatch(static, got)
	}
	if err != nil {
		c.fail("%s: %v", label, err)
	}
}

// verifyFaultFree executes the schedule at MTBF infinity, where every
// trial must finish at exactly the static makespan.
func verifyFaultFree(tr *tracer, c *checks, label string, x *ft.Exec, pol ft.RecoveryPolicy) {
	const trials = 2
	opts := ft.Options{Recovery: pol, Deadline: deadline(x.Static())}
	id := tr.begin("ft." + pol.Name())
	st, err := ft.MonteCarlo(x, opts, trials)
	tr.end(id, trials)
	c.ffRuns += trials
	if err != nil {
		c.fail("%s: ft %s: %v", label, pol.Name(), err)
		return
	}
	c.ffSurvived += int64(st.Survived)
	if st.Survived != trials || st.MeanRatio != 1 {
		c.fail("%s: ft %s at MTBF infinity survived %d/%d trials with mean ratio %g", label, pol.Name(), st.Survived, trials, st.MeanRatio)
	}
}

// deadline is the survival SLO of the faults study: 1.5x the static
// makespan.
func deadline(static int64) int64 { return static + static/2 }

// verifyAlgo schedules g with a through its class kernel, timed as span
// name, and runs every schedule-level check; it returns the makespan.
func verifyAlgo(tr *tracer, c *checks, name, label string, a algo, g *dag.Graph, topo *machine.Topology) int64 {
	procs := a.procsFor(g.NumNodes(), topo)
	lb := lowerBound(g, procs)
	id := tr.begin(name)
	cs, ms, err := a.kernel(g, procs, topo)
	tr.end(id, 0)
	if err != nil {
		c.fail("%s: %v", label, err)
		return -1
	}
	if ms != nil {
		verifyAPN(tr, c, label, ms, lb)
		return ms.Makespan()
	}
	verifyClique(tr, c, label, cs, lb)
	mk := cs.Makespan()
	cs.Release()
	return mk
}

// canary runs the 19 algorithms with every check on one fixed peer-set
// graph, so each workload's checks and traces touch every layer.
func canary(tr *tracer, c *checks, algs []algo, topo *machine.Topology, g *dag.Graph) {
	for _, a := range algs {
		verifyAlgo(tr, c, a.span, "canary "+a.span, a, g, topo)
	}
}

// tgbRoundTrip encodes g in the binary .tgb format, decodes it again
// and reports any difference in V, E, node weights or arcs.
func tgbRoundTrip(tr *tracer, g *dag.Graph) error {
	var buf bytes.Buffer
	id := tr.begin("dag.encode")
	err := dag.WriteBinary(&buf, g)
	tr.end(id, int64(g.NumNodes()))
	if err != nil {
		return err
	}
	size := int64(buf.Len())
	id = tr.begin("dag.decode")
	g2, err := dag.ReadBinary(&buf)
	tr.end(id, size)
	if err != nil {
		return err
	}
	return sameGraph(g2, g.NumNodes(), g.NumEdges(), graphSum(g))
}

// graphSum hashes a graph's node weights and arcs.
func graphSum(g *dag.Graph) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for v := 0; v < g.NumNodes(); v++ {
		n := dag.NodeID(v)
		h = (h ^ uint64(g.Weight(n))) * prime
		for _, a := range g.Succs(n) {
			h = (h ^ uint64(a.To)) * prime
			h = (h ^ uint64(a.Weight)) * prime
		}
	}
	return h
}

// sameGraph reports any difference between a decoded graph and the
// node count, edge count and graphSum of the graph that was encoded.
func sameGraph(got *dag.Graph, v, e int, sum uint64) error {
	if got.NumNodes() != v || got.NumEdges() != e {
		return fmt.Errorf(".tgb round trip gives V=%d E=%d, want V=%d E=%d", got.NumNodes(), got.NumEdges(), v, e)
	}
	if graphSum(got) != sum {
		return fmt.Errorf(".tgb round trip changed node or edge weights")
	}
	return nil
}

// verifyGraph checks the graph-level invariants: a .tgb round trip
// preserves the graph, and the critical-path length computed by
// dag.ComputeLevels is the largest entry b-level.
func verifyGraph(tr *tracer, c *checks, label string, g *dag.Graph) {
	if err := tgbRoundTrip(tr, g); err != nil {
		c.fail("%s: %v", label, err)
	}
	id := tr.begin("dag.levels")
	lv := dag.ComputeLevels(g)
	tr.end(id, 0)
	var cp int64
	for _, n := range g.Entries() {
		cp = max(cp, lv.B[n])
	}
	if cp != lv.CPLength {
		c.fail("%s: critical path %d, largest entry b-level %d", label, lv.CPLength, cp)
	}
}
