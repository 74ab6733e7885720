package unc

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/sched"
)

// refDSC is DSC's examination loop as it was before the ready heap:
// every step re-scores the whole free set with MaxBy, recomputing each
// node's t-level from its placed parents. runDSC must reproduce it
// byte for byte.
func refDSC(g *dag.Graph, speeds []float64) *sched.Schedule {
	n := g.NumNodes()
	s := acquire(g, max(n, 1), speeds)
	if n == 0 {
		return s
	}
	bl := dag.BLevels(g)
	clusterEnd := make([]int64, n)
	nextCluster := 0
	free := algo.NewReadySet(g)
	for !free.Empty() {
		node := algo.MaxBy(free.Ready(), func(m dag.NodeID) int64 {
			return refTLevel(g, s, m) + bl[m]
		})
		free.Pop(node)
		newEST := refTLevel(g, s, node)
		bestCluster := -1
		var bestEST int64
		for _, pr := range g.Preds(node) {
			c := s.ProcOf(pr.To)
			est := clusterEnd[c]
			for _, q := range g.Preds(node) {
				arrival := s.FinishOf(q.To)
				if s.ProcOf(q.To) != c {
					arrival += q.Weight
				}
				if arrival > est {
					est = arrival
				}
			}
			if bestCluster == -1 || est < bestEST || (est == bestEST && c < bestCluster) {
				bestCluster, bestEST = c, est
			}
		}
		var proc int
		var start int64
		if bestCluster >= 0 && bestEST < newEST {
			proc, start = bestCluster, bestEST
		} else {
			proc, start = nextCluster, newEST
			nextCluster++
		}
		s.MustPlace(node, proc, start)
		clusterEnd[proc] = s.FinishOf(node)
		free.MarkScheduled(g, node)
	}
	return s
}

// refTLevel is the earliest start of a free node with all incoming
// communication charged, recomputed from its placed parents.
func refTLevel(g *dag.Graph, s *sched.Schedule, n dag.NodeID) int64 {
	var t int64
	for _, pr := range g.Preds(n) {
		if c := s.FinishOf(pr.To) + pr.Weight; c > t {
			t = c
		}
	}
	return t
}

// TestDSCMatchesReference pins DSC and ScheduleHet("DSC", …, speeds) to
// the MaxBy reference loop over every generator family, seeds 1-3 and
// CCR 0.5 and 2.
func TestDSCMatchesReference(t *testing.T) {
	for _, fam := range gen.Generators() {
		for _, ccr := range []string{"0.5", "2"} {
			for seed := int64(1); seed <= 3; seed++ {
				params := gen.Params{}
				for _, ps := range fam.Params {
					if ps.Name == "ccr" {
						params["ccr"] = ccr
					}
				}
				if fam.Random {
					params["v"] = "60"
				}
				if fam.Name == "psg" {
					params["name"] = "wu-gajski-18"
				}
				g, err := gen.Generate(fam.Name, seed, params)
				if err != nil {
					t.Fatalf("generate %s: %v", fam.Name, err)
				}
				speeds := make([]float64, max(g.NumNodes(), 1))
				for p := range speeds {
					speeds[p] = 0.5 + float64(p%4)*0.5
				}
				for _, sp := range [][]float64{nil, speeds} {
					want := refDSC(g, sp).String()
					got, err := ScheduleHet("DSC", g, sp)
					if err != nil {
						t.Fatal(err)
					}
					if got.String() != want {
						t.Fatalf("%s seed %d ccr %s het=%t: DSC differs from the reference loop\ngot  %s\nwant %s",
							fam.Name, seed, ccr, sp != nil, got, want)
					}
				}
				plain, err := DSC(g)
				if err != nil {
					t.Fatal(err)
				}
				if plain.String() != refDSC(g, nil).String() {
					t.Fatalf("%s seed %d ccr %s: DSC differs from the reference loop", fam.Name, seed, ccr)
				}
			}
		}
	}
}
