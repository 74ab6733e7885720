package machine

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/sched"
)

// pair builds u(3) -c-> v(2).
func pair(t *testing.T, c int64) (*dag.Graph, dag.NodeID, dag.NodeID) {
	t.Helper()
	b := dag.NewBuilder()
	u := b.AddNode(3)
	v := b.AddNode(2)
	b.AddEdge(u, v, c)
	return b.MustBuild(), u, v
}

func TestMessageOverChain(t *testing.T) {
	g, u, v := pair(t, 5)
	topo := Chain(3) // 0-1-2
	s := NewSchedule(g, topo)
	s.MustPlace(u, 0, 0) // finishes at 3

	// On P2 the message travels two hops of 5 each: 3+5+5 = 13.
	est, ok := s.ESTOn(v, 2, true)
	if !ok || est != 13 {
		t.Errorf("ESTOn(v,P2) = %d,%v want 13,true", est, ok)
	}
	// On P0 it is local.
	est, ok = s.ESTOn(v, 0, true)
	if !ok || est != 3 {
		t.Errorf("ESTOn(v,P0) = %d,%v want 3,true", est, ok)
	}
	s.MustPlace(v, 2, 13)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(s.LinkSlots(0, 1)); got != 1 {
		t.Errorf("link 0->1 has %d reservations, want 1", got)
	}
	if got := len(s.LinkSlots(1, 2)); got != 1 {
		t.Errorf("link 1->2 has %d reservations, want 1", got)
	}
	if got := len(s.LinkSlots(1, 0)); got != 0 {
		t.Errorf("reverse channel 1->0 has %d reservations, want 0", got)
	}
}

func TestZeroCostMessageNeedsNoLink(t *testing.T) {
	g, u, v := pair(t, 0)
	s := NewSchedule(g, Chain(2))
	s.MustPlace(u, 0, 0)
	est, ok := s.ESTOn(v, 1, true)
	if !ok || est != 3 {
		t.Errorf("zero-cost EST = %d,%v want 3,true", est, ok)
	}
	s.MustPlace(v, 1, 3)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.LinkSlots(0, 1)) != 0 {
		t.Error("zero-cost message should not occupy the link")
	}
}

// TestLinkContention checks that two messages crossing the same link are
// serialized: the core difference between APN and BNP models.
func TestLinkContention(t *testing.T) {
	// Two independent parents on P0 finishing at the same time, both
	// sending cost-4 messages to children on P1.
	b := dag.NewBuilder()
	p1 := b.AddNode(2)
	p2 := b.AddNode(2)
	c1 := b.AddNode(1)
	c2 := b.AddNode(1)
	b.AddEdge(p1, c1, 4)
	b.AddEdge(p2, c2, 4)
	g := b.MustBuild()

	s := NewSchedule(g, Chain(2))
	s.MustPlace(p1, 0, 0) // [0,2)
	s.MustPlace(p2, 0, 2) // [2,4)
	s.MustPlace(c1, 1, 6) // msg1 on link [2,6)
	// msg2 ready at 4, but the link is busy until 6: arrival 6+4=10.
	est, ok := s.ESTOn(c2, 1, true)
	if !ok || est != 10 {
		t.Errorf("contended EST = %d,%v want 10,true", est, ok)
	}
	s.MustPlace(c2, 1, 10)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Without contention (clique model) arrival would have been 8.
}

func TestMessageInsertionIntoLinkGap(t *testing.T) {
	// A later-committed small message can use an earlier idle interval of
	// the link (insertion-based message slotting).
	b := dag.NewBuilder()
	pa := b.AddNode(10) // finishes late
	pb := b.AddNode(1)  // finishes early
	ca := b.AddNode(1)
	cb := b.AddNode(1)
	b.AddEdge(pa, ca, 3)
	b.AddEdge(pb, cb, 2)
	g := b.MustBuild()

	s := NewSchedule(g, Chain(2))
	s.MustPlace(pa, 0, 0) // [0,10)
	s.MustPlace(pb, 0, 10)
	s.MustPlace(ca, 1, 13) // msg a on link [10,13)
	// pb finishes at 11... link busy [10,13), so msg b starts at 13.
	est, ok := s.ESTOn(cb, 1, true)
	if !ok || est != 15 {
		t.Errorf("EST = %d,%v want 15,true", est, ok)
	}
	// Now reverse: if pb had finished during an idle window before 10 the
	// message would fit before msg a. Rebuild with pb first.
	s2 := NewSchedule(g, Chain(2))
	s2.MustPlace(pb, 0, 0)  // [0,1)
	s2.MustPlace(pa, 0, 1)  // [1,11)
	s2.MustPlace(ca, 1, 14) // msg a on link [11,14)
	est, ok = s2.ESTOn(cb, 1, true)
	if !ok || est != 3 {
		t.Errorf("gap EST = %d,%v want 3,true (message fits before msg a)", est, ok)
	}
	s2.MustPlace(cb, 1, 3)
	if err := s2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceErrors(t *testing.T) {
	g, u, v := pair(t, 5)
	s := NewSchedule(g, Chain(2))
	if err := s.Place(v, 0, 0); err == nil {
		t.Error("accepted child before parent")
	}
	s.MustPlace(u, 0, 0)
	if err := s.Place(u, 1, 9); err == nil {
		t.Error("accepted double placement")
	}
	if err := s.Place(v, 5, 0); err == nil {
		t.Error("accepted bad processor")
	}
	if err := s.Place(v, 1, -1); err == nil {
		t.Error("accepted negative start")
	}
	if err := s.Place(v, 1, 4); err == nil {
		t.Error("accepted start before message arrival (3+5=8)")
	}
	if err := s.Place(v, 1, 8); err != nil {
		t.Errorf("rejected legal placement: %v", err)
	}
}

func TestUnplaceRemovesReservations(t *testing.T) {
	g, u, v := pair(t, 5)
	s := NewSchedule(g, Chain(2))
	s.MustPlace(u, 0, 0)
	s.MustPlace(v, 1, 8)
	if err := s.Unplace(u); err == nil {
		t.Error("unplaced a node with a scheduled child")
	}
	if err := s.Unplace(v); err != nil {
		t.Fatalf("Unplace(v): %v", err)
	}
	if len(s.LinkSlots(0, 1)) != 0 {
		t.Error("reservation not removed with node")
	}
	if s.Placed() != 1 {
		t.Errorf("Placed = %d, want 1", s.Placed())
	}
	// The link is free again: a re-placement gets the original time.
	est, ok := s.ESTOn(v, 1, true)
	if !ok || est != 8 {
		t.Errorf("EST after unplace = %d,%v want 8,true", est, ok)
	}
	if err := s.Unplace(v); err != nil {
		t.Errorf("Unplace of unscheduled node should be a no-op, got %v", err)
	}
}

func TestBestESTPrefersLocal(t *testing.T) {
	g, u, v := pair(t, 50)
	s := NewSchedule(g, Ring(4))
	s.MustPlace(u, 2, 0)
	p, est, ok := s.BestEST(v)
	if !ok || p != 2 || est != 3 {
		t.Errorf("BestEST = P%d@%d,%v want P2@3,true", p, est, ok)
	}
}

func TestValidateCatchesForeignCorruption(t *testing.T) {
	g, u, v := pair(t, 5)
	s := NewSchedule(g, Chain(2))
	s.MustPlace(u, 0, 0)
	s.MustPlace(v, 1, 8)
	// Corrupt: drop the link reservation behind the schedule's back.
	link := &s.links[s.topo.Channel(0, 1)]
	link.Remove(v, 3)
	const missing = "reservation missing from link timeline"
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("Validate with the link reservation removed: %v, want %q", err, missing)
	}
	// Another node's slot at the hop's start is not the hop's reservation.
	if err := link.Insert(sched.Slot{Node: u, Start: 3, Finish: 8}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("Validate with a foreign slot at the hop's start: %v, want %q", err, missing)
	}
}

func TestReplaySequencesDiamond(t *testing.T) {
	b := dag.NewBuilder()
	na := b.AddNode(2)
	nb := b.AddNode(3)
	nc := b.AddNode(4)
	nd := b.AddNode(1)
	b.AddEdge(na, nb, 1)
	b.AddEdge(na, nc, 5)
	b.AddEdge(nb, nd, 2)
	b.AddEdge(nc, nd, 3)
	g := b.MustBuild()

	topo := Chain(2)
	s, err := ReplaySequencesHet(g, topo, [][]dag.NodeID{{na, nc, nd}, {nb}}, nil)
	if err != nil {
		t.Fatalf("ReplaySequencesHet: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !s.Complete() {
		t.Error("replay incomplete")
	}
	if s.ProcOf(nb) != 1 || s.ProcOf(nc) != 0 {
		t.Error("assignment not respected")
	}
	// a [0,2) on P0; b: msg arrives 2+1=3, b [3,6) on P1;
	// c [2,6) on P0; d: b's msg 6+2=8 arrives P0 at 8, c local at 6 -> d [8,9).
	if s.StartOf(nd) != 8 {
		t.Errorf("d starts %d, want 8", s.StartOf(nd))
	}
}

func TestReplaySequencesErrors(t *testing.T) {
	g, u, v := pair(t, 1)
	topo := Chain(2)
	if _, err := ReplaySequencesHet(g, topo, [][]dag.NodeID{{u, v}}, nil); err == nil {
		t.Error("accepted wrong sequence count")
	}
	if _, err := ReplaySequencesHet(g, topo, [][]dag.NodeID{{u, u}, {v}}, nil); err == nil {
		t.Error("accepted duplicate node")
	}
	if _, err := ReplaySequencesHet(g, topo, [][]dag.NodeID{{u}, nil}, nil); err == nil {
		t.Error("accepted missing node")
	}
	if _, err := ReplaySequencesHet(g, topo, [][]dag.NodeID{{v, u}, nil}, nil); err == nil {
		t.Error("accepted precedence-violating sequence")
	}
}

func TestRandomAPNSchedulesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	topos := []*Topology{Chain(3), Ring(4), Hypercube(3), Star(4), Clique(3)}
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 2+rng.Intn(20))
		topo := topos[trial%len(topos)]
		s := NewSchedule(g, topo)
		for _, n := range g.TopoOrder() {
			p, est, ok := scanEST(s, n, rng.Intn(2) == 0)
			if !ok {
				t.Fatal("EST scan failed in topo order")
			}
			s.MustPlace(n, p, est)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d (%s): %v", trial, topo.Name(), err)
		}
		if s.NSL() < 1.0-1e-9 {
			t.Fatalf("NSL %v < 1", s.NSL())
		}
	}
}

func TestReplayMatchesRandomAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 2+rng.Intn(15))
		topo := Ring(4)
		// Random assignment; per-proc order = topological order.
		seqs := make([][]dag.NodeID, topo.NumProcs())
		for _, n := range g.TopoOrder() {
			p := rng.Intn(topo.NumProcs())
			seqs[p] = append(seqs[p], n)
		}
		s, err := ReplaySequencesHet(g, topo, seqs, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// scanEST returns the processor with the smallest EST for n over every
// processor, ties toward the lower index, with or without insertion.
func scanEST(s *Schedule, n dag.NodeID, insertion bool) (proc int, est int64, ok bool) {
	proc = -1
	for p := 0; p < s.NumProcs(); p++ {
		e, k := s.ESTOn(n, p, insertion)
		if !k {
			return -1, 0, false
		}
		if proc == -1 || e < est {
			proc, est = p, e
		}
	}
	return proc, est, true
}

func randomGraph(rng *rand.Rand, n int) *dag.Graph {
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(1 + rng.Int63n(20))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) == 0 {
				b.AddEdge(dag.NodeID(i), dag.NodeID(j), rng.Int63n(30))
			}
		}
	}
	return b.MustBuild()
}
