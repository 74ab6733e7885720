package sched

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
)

// fullScanBestESTNonInsertion is BestESTNonInsertion without its early
// exit: the non-insertion ESTOn of every processor, ties toward lower
// indices.
func fullScanBestESTNonInsertion(s *Schedule, n dag.NodeID) (proc int, est int64, ok bool) {
	for p := 0; p < s.NumProcs(); p++ {
		e, ok := s.ESTOn(n, p, false)
		if !ok {
			return -1, 0, false
		}
		if p == 0 || e < est {
			proc, est = p, e
		}
	}
	return proc, est, true
}

// TestBestESTNonInsertionMatchesFullScan compares the early-exit scan
// with the full scan on random partial schedules, with small weights
// so ESTs tie often. It also requires the random cases to have reached
// both sides of the jump: p1 ahead of the first processor that brings
// the best EST down to the lower bound, and p1 behind it.
func TestBestESTNonInsertionMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var queries, ties, p1Ahead, p1Behind int
	for iter := 0; iter < 400; iter++ {
		n := 4 + rng.Intn(20)
		b := dag.NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode(int64(rng.Intn(4)))
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(4) == 0 {
					b.AddEdge(dag.NodeID(u), dag.NodeID(v), int64(rng.Intn(6)))
				}
			}
		}
		g := b.MustBuild()
		procs := 1 + rng.Intn(10)
		s := New(g, procs)
		// Place a random prefix in ID (topological) order, each node at
		// its EST on a random processor.
		prefix := rng.Intn(n)
		for v := 0; v < prefix; v++ {
			p := rng.Intn(procs)
			est, ok := s.ESTOn(dag.NodeID(v), p, false)
			if !ok {
				t.Fatalf("iter %d: node %d has an unplaced parent", iter, v)
			}
			s.MustPlace(dag.NodeID(v), p, est+int64(rng.Intn(2)))
		}
		for v := prefix; v < n; v++ {
			node := dag.NodeID(v)
			wp, we, wok := fullScanBestESTNonInsertion(s, node)
			gp, ge, gok := s.BestESTNonInsertion(node)
			if gp != wp || ge != we || gok != wok {
				t.Fatalf("iter %d node %d: early exit (%d, %d, %v), full scan (%d, %d, %v)",
					iter, v, gp, ge, gok, wp, we, wok)
			}
			if !wok {
				continue
			}
			queries++
			lb := s.arrM1[node]
			first, tied := -1, 0
			for p := 0; p < procs; p++ {
				e, _ := s.ESTOn(node, p, false)
				if e == we {
					tied++
				}
				if first < 0 && p != int(s.arrP1[node]) && e <= lb {
					first = p
				}
			}
			if tied > 1 {
				ties++
			}
			if p1 := int(s.arrP1[node]); p1 >= 0 && first >= 0 {
				if p1 > first {
					p1Ahead++
				} else {
					p1Behind++
				}
			}
		}
	}
	t.Logf("%d queries: %d tied, p1 ahead %d, behind %d", queries, ties, p1Ahead, p1Behind)
	if ties == 0 || p1Ahead == 0 || p1Behind == 0 {
		t.Fatalf("random cases missed a branch: %d tied, p1 ahead %d, behind %d", ties, p1Ahead, p1Behind)
	}
}
