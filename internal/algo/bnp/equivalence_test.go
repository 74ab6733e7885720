package bnp

import (
	"fmt"
	"testing"

	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/sched"
)

// This file pins HLFET, MCP, ETF and DLS — combos of the param engine —
// to the pre-refactor reference implementations. The references
// reproduce the original algorithms verbatim — exhaustive
// ready×processor pair scans with an O(indegree) predecessor scan per
// EST query — written against the public Schedule accessors only, so
// they share none of the incremental caching under test. Every registered generator family, across seeds, CCRs, and
// processor counts, must yield byte-identical schedules.

// refDataReady is the original DataReadyTime: a full predecessor scan.
func refDataReady(s *sched.Schedule, g *dag.Graph, n dag.NodeID, p int) (int64, bool) {
	var drt int64
	for _, pr := range g.Preds(n) {
		if !s.IsScheduled(pr.To) {
			return 0, false
		}
		arrival := s.FinishOf(pr.To)
		if s.ProcOf(pr.To) != p {
			arrival += pr.Weight
		}
		if arrival > drt {
			drt = arrival
		}
	}
	return drt, true
}

// refESTOn is the original ESTOn: scan data-ready time, then the
// original EarliestFit gap scan over the processor's slots.
func refESTOn(s *sched.Schedule, g *dag.Graph, n dag.NodeID, p int, insertion bool) (int64, bool) {
	drt, ok := refDataReady(s, g, n, p)
	if !ok {
		return 0, false
	}
	slots := s.Slots(p)
	if len(slots) == 0 {
		return drt, true
	}
	if !insertion {
		if last := slots[len(slots)-1].Finish; last > drt {
			return last, true
		}
		return drt, true
	}
	duration := g.Weight(n)
	prevFinish := int64(0)
	for i := 0; i < len(slots); i++ {
		gapStart := prevFinish
		if gapStart < drt {
			gapStart = drt
		}
		if slots[i].Start-gapStart >= duration {
			return gapStart, true
		}
		prevFinish = slots[i].Finish
	}
	if prevFinish < drt {
		return drt, true
	}
	return prevFinish, true
}

// refBestEST is the original BestEST loop.
func refBestEST(s *sched.Schedule, g *dag.Graph, n dag.NodeID, insertion bool) (int, int64, bool) {
	proc := -1
	var est int64
	for p := 0; p < s.NumProcs(); p++ {
		e, ok := refESTOn(s, g, n, p, insertion)
		if !ok {
			return -1, 0, false
		}
		if proc == -1 || e < est {
			proc, est = p, e
		}
	}
	return proc, est, true
}

// refETF is the original ETF: the full ready×processor pair scan per
// step.
func refETF(g *dag.Graph, numProcs int) *sched.Schedule {
	sl := dag.StaticLevels(g)
	s := sched.New(g, numProcs)
	ready := algo.NewReadySet(g)
	for !ready.Empty() {
		bestNode := dag.None
		bestProc := -1
		var bestEST int64
		for _, n := range ready.Ready() {
			for p := 0; p < numProcs; p++ {
				est, ok := refESTOn(s, g, n, p, false)
				if !ok {
					panic("refETF: ready node has unscheduled parent")
				}
				if bestNode == dag.None || est < bestEST ||
					(est == bestEST && betterETFTie(sl, n, p, bestNode, bestProc)) {
					bestNode, bestProc, bestEST = n, p, est
				}
			}
		}
		ready.Pop(bestNode)
		s.MustPlace(bestNode, bestProc, bestEST)
		ready.MarkScheduled(g, bestNode)
	}
	return s
}

// refDLS is the original DLS pair scan.
func refDLS(g *dag.Graph, numProcs int) *sched.Schedule {
	sl := dag.StaticLevels(g)
	s := sched.New(g, numProcs)
	ready := algo.NewReadySet(g)
	for !ready.Empty() {
		bestNode := dag.None
		bestProc := -1
		var bestDL, bestEST int64
		for _, n := range ready.Ready() {
			for p := 0; p < numProcs; p++ {
				est, ok := refESTOn(s, g, n, p, false)
				if !ok {
					panic("refDLS: ready node has unscheduled parent")
				}
				dl := sl[n] - est
				if bestNode == dag.None || dl > bestDL ||
					(dl == bestDL && (n < bestNode || (n == bestNode && p < bestProc))) {
					bestNode, bestProc, bestDL, bestEST = n, p, dl, est
				}
			}
		}
		ready.Pop(bestNode)
		s.MustPlace(bestNode, bestProc, bestEST)
		ready.MarkScheduled(g, bestNode)
	}
	return s
}

// betterETFTie reports whether candidate (n,p) wins the tie against the
// incumbent (bn,bp) at equal EST: higher static level, then smaller node
// ID, then lower processor index.
func betterETFTie(sl []int64, n dag.NodeID, p int, bn dag.NodeID, bp int) bool {
	if sl[n] != sl[bn] {
		return sl[n] > sl[bn]
	}
	if n != bn {
		return n < bn
	}
	return p < bp
}

// refHLFET is the original HLFET list scheduler (non-insertion BestEST).
func refHLFET(g *dag.Graph, numProcs int) *sched.Schedule {
	sl := dag.StaticLevels(g)
	s := sched.New(g, numProcs)
	ready := algo.NewReadySet(g)
	for !ready.Empty() {
		n := algo.MaxBy(ready.Ready(), func(n dag.NodeID) int64 { return sl[n] })
		ready.Pop(n)
		p, est, ok := refBestEST(s, g, n, false)
		if !ok {
			panic("refHLFET: popped node with unscheduled parent")
		}
		s.MustPlace(n, p, est)
		ready.MarkScheduled(g, n)
	}
	return s
}

// refMCP is the original MCP placement loop (insertion BestEST) over
// the unchanged ALAP-list order.
func refMCP(g *dag.Graph, numProcs int) *sched.Schedule {
	s := sched.New(g, numProcs)
	for _, n := range algo.ALAPListOrder(g) {
		p, est, ok := refBestEST(s, g, n, true)
		if !ok {
			panic("refMCP: order is not topological")
		}
		s.MustPlace(n, p, est)
	}
	return s
}

// equivalenceGraphs generates one instance per registered generator
// family for the given seed and CCR, sized to keep the quadratic
// references fast.
func equivalenceGraphs(t *testing.T, seed int64, ccr float64) map[string]*dag.Graph {
	t.Helper()
	out := map[string]*dag.Graph{}
	for _, fam := range gen.Generators() {
		params := gen.Params{}
		if fam.Random {
			params["v"] = "50"
			params["ccr"] = fmt.Sprint(ccr)
		}
		if fam.Name == "psg" {
			// The psg meta-generator requires a graph name; its members
			// are also registered individually and covered that way.
			params["name"] = "wu-gajski-18"
		}
		g, err := gen.Generate(fam.Name, seed, params)
		if err != nil {
			t.Fatalf("generate %s: %v", fam.Name, err)
		}
		out[fam.Name] = g
	}
	return out
}

// TestOptimizedKernelsMatchReference compares the optimized schedulers
// against the pre-refactor references over every registered generator
// family × seeds × CCRs × processor counts, requiring byte-identical
// schedules.
func TestOptimizedKernelsMatchReference(t *testing.T) {
	refs := map[string]func(*dag.Graph, int) *sched.Schedule{
		"ETF":   refETF,
		"DLS":   refDLS,
		"HLFET": refHLFET,
		"MCP":   refMCP,
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, ccr := range []float64{0.5, 2.0} {
			graphs := equivalenceGraphs(t, seed, ccr)
			for famName, g := range graphs {
				for _, procs := range []int{2, 8} {
					for algName, ref := range refs {
						want := ref(g, procs).String()
						s, err := Algorithms()[algName](g, procs)
						if err != nil {
							t.Fatalf("%s on %s: %v", algName, famName, err)
						}
						if got := s.String(); got != want {
							t.Errorf("%s diverges from reference on %s (seed=%d ccr=%g procs=%d):\noptimized:\n%s\nreference:\n%s",
								algName, famName, seed, ccr, procs, got, want)
						}
					}
				}
			}
		}
	}
}

// TestInsertionKernelsMatchReferenceQueries cross-checks the insertion
// EST path (used by ISH hole filling and MCP) query by query on
// partial optimized schedules: every ESTOn answer must match the
// reference scan.
func TestInsertionKernelsMatchReferenceQueries(t *testing.T) {
	graphs := equivalenceGraphs(t, 5, 1.0)
	for famName, g := range graphs {
		s := sched.New(g, 4)
		for _, n := range g.TopoOrder() {
			for p := 0; p < s.NumProcs(); p++ {
				for _, insertion := range []bool{false, true} {
					want, wantOK := refESTOn(s, g, n, p, insertion)
					got, gotOK := s.ESTOn(n, p, insertion)
					if got != want || gotOK != wantOK {
						t.Fatalf("%s: ESTOn(n%d, P%d, insertion=%v) = (%d,%v), reference (%d,%v)",
							famName, n, p, insertion, got, gotOK, want, wantOK)
					}
				}
			}
			p, est, ok := s.BestEST(n, true)
			if !ok {
				t.Fatalf("%s: BestEST failed in topo order", famName)
			}
			s.MustPlace(n, p, est)
		}
	}
}
