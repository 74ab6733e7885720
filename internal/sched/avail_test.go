package sched

import "testing"

func TestSetAvailableFromClampsEST(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 2)
	if err := s.SetAvailableFrom([]int64{10, 0}); err != nil {
		t.Fatalf("SetAvailableFrom: %v", err)
	}
	est, ok := s.ESTOn(ids[0], 0, false)
	if !ok || est != 10 {
		t.Fatalf("ESTOn proc 0 = (%d, %v), want (10, true)", est, ok)
	}
	est, ok = s.ESTOn(ids[0], 1, false)
	if !ok || est != 0 {
		t.Fatalf("ESTOn proc 1 = (%d, %v), want (0, true)", est, ok)
	}
	p, est, ok := s.BestEST(ids[0], false)
	if !ok || p != 1 || est != 0 {
		t.Fatalf("BestEST = (%d, %d, %v), want (1, 0, true)", p, est, ok)
	}
	p, est, ok = s.BestESTNonInsertion(ids[0])
	if !ok || p != 1 || est != 0 {
		t.Fatalf("BestESTNonInsertion = (%d, %d, %v), want (1, 0, true)", p, est, ok)
	}
	// Clearing the mask restores the unrestricted queries.
	if err := s.SetAvailableFrom(nil); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if est, ok := s.ESTOn(ids[0], 0, false); !ok || est != 0 {
		t.Fatalf("cleared ESTOn proc 0 = (%d, %v), want (0, true)", est, ok)
	}
}

func TestSetAvailableFromNeverExcludes(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 2)
	if err := s.SetAvailableFrom([]int64{Never, 3}); err != nil {
		t.Fatalf("SetAvailableFrom: %v", err)
	}
	if est, ok := s.ESTOn(ids[0], 0, false); !ok || est != Never {
		t.Fatalf("excluded ESTOn = (%d, %v), want (Never, true)", est, ok)
	}
	p, est, ok := s.BestEST(ids[0], false)
	if !ok || p != 1 || est != 3 {
		t.Fatalf("BestEST = (%d, %d, %v), want (1, 3, true)", p, est, ok)
	}
	p, est, ok = s.BestESTNonInsertion(ids[0])
	if !ok || p != 1 || est != 3 {
		t.Fatalf("BestESTNonInsertion = (%d, %d, %v), want (1, 3, true)", p, est, ok)
	}
	// All processors excluded: no placement target.
	if err := s.SetAvailableFrom([]int64{Never, Never}); err != nil {
		t.Fatalf("SetAvailableFrom: %v", err)
	}
	if p, _, _ := s.BestEST(ids[0], false); p != -1 {
		t.Fatalf("all-excluded BestEST proc = %d, want -1", p)
	}
	if p, _, _ := s.BestESTNonInsertion(ids[0]); p != -1 {
		t.Fatalf("all-excluded BestESTNonInsertion proc = %d, want -1", p)
	}
}

func TestSetAvailableFromValidates(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 2)
	if err := s.SetAvailableFrom([]int64{1}); err == nil {
		t.Error("mis-sized mask accepted")
	}
	if err := s.SetAvailableFrom([]int64{-1, 0}); err == nil {
		t.Error("negative availability accepted")
	}
	// The mask is copied, not aliased.
	mask := []int64{5, 0}
	if err := s.SetAvailableFrom(mask); err != nil {
		t.Fatalf("SetAvailableFrom: %v", err)
	}
	mask[0] = 99
	if est, ok := s.ESTOn(ids[0], 0, false); !ok || est != 5 {
		t.Fatalf("mask aliased: ESTOn proc 0 = (%d, %v), want (5, true)", est, ok)
	}
}

func TestPlaceFixed(t *testing.T) {
	g, ids := diamond(t)
	s := New(g, 2)
	// A fixed interval longer than the nominal execution time (a
	// perturbed realized run) validates.
	if err := s.PlaceFixed(ids[0], 0, 0, 7); err != nil {
		t.Fatalf("PlaceFixed: %v", err)
	}
	if s.StartOf(ids[0]) != 0 || s.FinishOf(ids[0]) != 7 {
		t.Fatalf("fixed interval = [%d, %d], want [0, 7]", s.StartOf(ids[0]), s.FinishOf(ids[0]))
	}
	// The mask does not apply to fixed placements: they record history.
	if err := s.SetAvailableFrom([]int64{Never, Never}); err != nil {
		t.Fatalf("SetAvailableFrom: %v", err)
	}
	if err := s.PlaceFixed(ids[1], 0, 8, 8); err != nil {
		t.Fatalf("zero-length PlaceFixed on excluded proc: %v", err)
	}
	if err := s.SetAvailableFrom(nil); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if err := s.PlaceFixed(ids[2], 1, 12, 16); err != nil {
		t.Fatalf("PlaceFixed: %v", err)
	}
	if err := s.Place(ids[3], 1, 20); err != nil {
		t.Fatalf("Place after fixed: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate with fixed slots: %v", err)
	}
	// Errors: inverted interval, overlap.
	s2 := New(g, 2)
	if err := s2.PlaceFixed(ids[0], 0, 5, 4); err == nil {
		t.Error("inverted interval accepted")
	}
	if err := s2.PlaceFixed(ids[0], 0, 0, 10); err != nil {
		t.Fatalf("PlaceFixed: %v", err)
	}
	if err := s2.PlaceFixed(ids[1], 0, 3, 6); err == nil {
		t.Error("overlapping fixed interval accepted")
	}
}
