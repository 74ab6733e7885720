package sched

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dag"
)

// diamond: a(2) -1-> b(3) -2-> d(1); a -5-> c(4) -3-> d.
func diamond(t *testing.T) (*dag.Graph, [4]dag.NodeID) {
	t.Helper()
	b := dag.NewBuilder()
	na := b.AddLabeledNode(2, "a")
	nb := b.AddLabeledNode(3, "b")
	nc := b.AddLabeledNode(4, "c")
	nd := b.AddLabeledNode(1, "d")
	b.AddEdge(na, nb, 1)
	b.AddEdge(na, nc, 5)
	b.AddEdge(nb, nd, 2)
	b.AddEdge(nc, nd, 3)
	return b.MustBuild(), [4]dag.NodeID{na, nb, nc, nd}
}

func TestPlaceAndAccessors(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 2)
	if err := s.Place(ids[0], 0, 0); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if !s.IsScheduled(ids[0]) || s.ProcOf(ids[0]) != 0 {
		t.Error("placement not recorded")
	}
	if s.StartOf(ids[0]) != 0 || s.FinishOf(ids[0]) != 2 {
		t.Errorf("start/finish = %d/%d, want 0/2", s.StartOf(ids[0]), s.FinishOf(ids[0]))
	}
	if s.Placed() != 1 || s.Complete() {
		t.Error("placed bookkeeping wrong")
	}
	if s.Length() != 2 {
		t.Errorf("Length = %d, want 2", s.Length())
	}
	if s.ProcessorsUsed() != 1 {
		t.Errorf("ProcessorsUsed = %d, want 1", s.ProcessorsUsed())
	}
}

func TestPlaceErrors(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 2)
	if err := s.Place(ids[0], 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(ids[0], 1, 5); err == nil {
		t.Error("double placement accepted")
	}
	if err := s.Place(ids[1], 5, 0); err == nil {
		t.Error("bad processor accepted")
	}
	if err := s.Place(ids[1], 0, -3); err == nil {
		t.Error("negative start accepted")
	}
	// a occupies [0,2) on P0; b for [1,4) overlaps.
	if err := s.Place(ids[1], 0, 1); err == nil {
		t.Error("overlapping slot accepted")
	}
	// Touching at the boundary is fine.
	if err := s.Place(ids[1], 0, 2); err != nil {
		t.Errorf("boundary placement rejected: %v", err)
	}
}

func TestOverlapAgainstLaterSlot(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 1)
	if err := s.Place(ids[1], 0, 10); err != nil { // b in [10,13)
		t.Fatal(err)
	}
	if err := s.Place(ids[0], 0, 9); err == nil { // a in [9,11) overlaps
		t.Error("overlap with later slot accepted")
	}
	if err := s.Place(ids[0], 0, 8); err != nil { // a in [8,10) touches
		t.Errorf("touching placement rejected: %v", err)
	}
}

func TestUnplace(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 2)
	s.MustPlace(ids[0], 0, 0)
	s.MustPlace(ids[1], 0, 2)
	s.Unplace(ids[0])
	if s.IsScheduled(ids[0]) {
		t.Error("node still scheduled after Unplace")
	}
	if s.Placed() != 1 {
		t.Errorf("Placed = %d, want 1", s.Placed())
	}
	// The freed interval can be reused.
	if err := s.Place(ids[2], 0, 0); err == nil {
		// c has weight 4: [0,4) overlaps b at [2,5)? b occupies [2,5).
		// So this must actually fail; re-check with a fitting start.
		t.Error("overlap after Unplace accepted")
	}
	s.Unplace(ids[3]) // no-op for unscheduled node
	if s.Placed() != 1 {
		t.Error("Unplace of unscheduled node changed counter")
	}
}

func TestDataReadyTime(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 2)
	s.MustPlace(ids[0], 0, 0) // a on P0, finish 2
	drt, ok := s.DataReadyTime(ids[1], 0)
	if !ok || drt != 2 {
		t.Errorf("DRT(b,P0) = %d,%v want 2,true (same proc, no comm)", drt, ok)
	}
	drt, ok = s.DataReadyTime(ids[1], 1)
	if !ok || drt != 3 {
		t.Errorf("DRT(b,P1) = %d,%v want 3,true (2 + c=1)", drt, ok)
	}
	if _, ok := s.DataReadyTime(ids[3], 0); ok {
		t.Error("DRT with unscheduled parents should not be ok")
	}
	// Entry node: DRT is 0 everywhere.
	s2 := New(g, 2)
	if drt, ok := s2.DataReadyTime(ids[0], 1); !ok || drt != 0 {
		t.Errorf("entry DRT = %d,%v want 0,true", drt, ok)
	}
}

func TestESTInsertionFindsGap(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 1)
	// Occupy [0,2) and [10,13): gap [2,10) of size 8.
	s.MustPlace(ids[0], 0, 0)
	s.MustPlace(ids[1], 0, 10)
	// c (weight 4, parent a on same proc -> drt 2).
	est, ok := s.ESTOn(ids[2], 0, true)
	if !ok || est != 2 {
		t.Errorf("insertion EST = %d,%v want 2,true", est, ok)
	}
	est, ok = s.ESTOn(ids[2], 0, false)
	if !ok || est != 13 {
		t.Errorf("non-insertion EST = %d,%v want 13,true", est, ok)
	}
}

func TestESTInsertionSkipsTooSmallGap(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 1)
	// a:[0,2), b:[5,8): gap [2,5) of size 3 < weight(c)=4.
	s.MustPlace(ids[0], 0, 0)
	s.MustPlace(ids[1], 0, 5)
	est, ok := s.ESTOn(ids[2], 0, true)
	if !ok || est != 8 {
		t.Errorf("EST = %d,%v want 8,true (gap too small)", est, ok)
	}
}

func TestESTGapConstrainedByReadyTime(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 2)
	s.MustPlace(ids[0], 1, 0) // a on P1, finish 2; crossing edge a->c costs 5.
	// On P0 c's drt is 2+5=7.
	est, ok := s.ESTOn(ids[2], 0, true)
	if !ok || est != 7 {
		t.Errorf("EST = %d,%v want 7,true", est, ok)
	}
}

func TestBestEST(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 3)
	s.MustPlace(ids[0], 0, 0)
	// b: on P0 drt=2 (no comm), on P1/P2 drt=3. P0 wins.
	p, est, ok := s.BestEST(ids[1], false)
	if !ok || p != 0 || est != 2 {
		t.Errorf("BestEST = P%d@%d,%v want P0@2,true", p, est, ok)
	}
	if _, _, ok := s.BestEST(ids[3], false); ok {
		t.Error("BestEST with unscheduled parents should not be ok")
	}
}

func TestValidateAcceptsHandSchedule(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 2)
	s.MustPlace(ids[0], 0, 0)  // a [0,2) P0
	s.MustPlace(ids[1], 0, 2)  // b [2,5) P0 (same proc, drt 2)
	s.MustPlace(ids[2], 1, 7)  // c [7,11) P1 (drt 2+5)
	s.MustPlace(ids[3], 1, 14) // d [14,15) P1 (b cross 5+2=7, c local 11 -> 14? c local=11, b arrives 7; want >= 11)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !s.Complete() {
		t.Error("schedule should be complete")
	}
	if s.Length() != 15 {
		t.Errorf("Length = %d, want 15", s.Length())
	}
}

func TestValidateRejectsPrecedenceViolation(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 2)
	s.MustPlace(ids[0], 0, 0) // a finishes 2
	s.MustPlace(ids[1], 1, 2) // b on P1 starts 2 < 2+c(1)=3
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted early cross-processor start")
	}
}

func TestValidateRejectsChildBeforeParentScheduled(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 2)
	s.MustPlace(ids[1], 0, 0) // b placed, parent a is not
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted child without scheduled parent")
	}
}

func TestNSL(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 1)
	// Serial schedule on one processor: length 10 (sum of weights).
	s.MustPlace(ids[0], 0, 0)
	s.MustPlace(ids[1], 0, 2)
	s.MustPlace(ids[2], 0, 5)
	s.MustPlace(ids[3], 0, 9)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// CP computation sum = 7 (a,c,d); NSL = 10/7.
	if nsl := s.NSL(); nsl < 10.0/7-1e-9 || nsl > 10.0/7+1e-9 {
		t.Errorf("NSL = %v, want %v", nsl, 10.0/7)
	}
}

func TestStringOutput(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 2)
	s.MustPlace(ids[0], 1, 0)
	str := s.String()
	if !strings.Contains(str, "P1:") || !strings.Contains(str, "n0[0,2)") {
		t.Errorf("String output unexpected:\n%s", str)
	}
}

func TestMinProcsClamped(t *testing.T) {
	g, _ := diamond(t)
	s := New(g, 0)
	if s.NumProcs() != 1 {
		t.Errorf("NumProcs = %d, want clamp to 1", s.NumProcs())
	}
}

// TestRandomScheduleValidates drives random (but legal) list scheduling
// and checks Validate accepts every intermediate state.
func TestRandomScheduleValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 2+rng.Intn(25))
		s := New(g, 1+rng.Intn(4))
		for _, n := range g.TopoOrder() {
			insertion := rng.Intn(2) == 0
			p, est, ok := s.BestEST(n, insertion)
			if !ok {
				t.Fatal("BestEST failed in topo order")
			}
			s.MustPlace(n, p, est)
			if err := s.Validate(); err != nil {
				t.Fatalf("intermediate validate: %v", err)
			}
		}
		if !s.Complete() {
			t.Fatal("schedule incomplete after placing all nodes")
		}
		if s.NSL() < 1.0-1e-9 {
			t.Fatalf("NSL %v < 1", s.NSL())
		}
	}
}

func randomGraph(rng *rand.Rand, n int) *dag.Graph {
	b := dag.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(1 + rng.Int63n(30))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) == 0 {
				b.AddEdge(dag.NodeID(i), dag.NodeID(j), rng.Int63n(40))
			}
		}
	}
	return b.MustBuild()
}

// TestValidateRejectsFinishBeforeStart pins the wrap-around guard: a
// placement whose finish time overflowed int64 has its slot duration
// intact modulo 2⁶⁴, so only the finish < start check catches it.
func TestValidateRejectsFinishBeforeStart(t *testing.T) {
	b := dag.NewBuilder()
	n := b.AddNode(1 << 62)
	g := b.MustBuild()
	s := New(g, 1)
	s.MustPlace(n, 0, 1<<62)
	if s.FinishOf(n) >= s.StartOf(n) {
		t.Fatalf("finish %d did not wrap below start %d", s.FinishOf(n), s.StartOf(n))
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "before it starts") {
		t.Errorf("Validate of a wrapped finish: err = %v, want finish-before-start error", err)
	}
}
