package sched

import (
	"math"
	"testing"

	"repro/internal/dag"
)

func speedsTestGraph(t *testing.T) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder()
	n0 := b.AddNode(5)
	n1 := b.AddNode(7)
	b.AddEdge(n0, n1, 2)
	return b.MustBuild()
}

func TestSetSpeedsRejections(t *testing.T) {
	g := speedsTestGraph(t)
	s := New(g, 2)
	for _, bad := range [][]float64{
		{1.0},              // wrong length
		{1.0, 1.0, 1.0},    // wrong length
		{1.0, 0.0},         // zero
		{1.0, -1.0},        // negative
		{1.0, math.Inf(1)}, // infinite
		{math.NaN(), 1.0},  // NaN
		{1.0, 1e-300},      // 12 work units stretched past the weight bound
	} {
		if err := s.SetSpeeds(bad); err == nil {
			t.Errorf("SetSpeeds(%v) succeeded, want error", bad)
		}
	}
	if err := s.SetSpeeds([]float64{1.0, 2.0}); err != nil {
		t.Fatalf("SetSpeeds(valid): %v", err)
	}
	// Once anything is placed the machine model is locked in.
	s.MustPlace(0, 0, 0)
	if err := s.SetSpeeds([]float64{1.0, 2.0}); err == nil {
		t.Error("SetSpeeds on a non-empty schedule succeeded, want error")
	}
}

// TestSetSpeedsWorkBound pins the work bound of SetSpeeds: the total
// computation on the slowest processor, rounded up, plus the total
// communication may reach dag.MaxTotalWeight but not pass it. A graph
// without computation accepts any positive finite factor.
func TestSetSpeedsWorkBound(t *testing.T) {
	b := dag.NewBuilder()
	b.AddNode(0)
	b.AddNode(0)
	b.AddEdge(0, 1, 3)
	zero := b.MustBuild()
	if _, err := AcquireOn(zero, 2, []float64{math.SmallestNonzeroFloat64, math.MaxFloat64}); err != nil {
		t.Errorf("zero-weight graph rejected extreme finite factors: %v", err)
	}

	b = dag.NewBuilder()
	b.AddNode(dag.MaxTotalWeight / 2)
	heavy := b.MustBuild()
	s, err := AcquireOn(heavy, 2, []float64{1, 0.5})
	if err != nil {
		t.Fatalf("work exactly at the bound rejected: %v", err)
	}
	s.MustPlace(0, 1, 0)
	if f := s.FinishOf(0); f != dag.MaxTotalWeight {
		t.Errorf("FinishOf = %d, want %d", f, dag.MaxTotalWeight)
	}
	if _, err := AcquireOn(heavy, 2, []float64{1, 0.25}); err == nil {
		t.Error("work twice the bound accepted")
	}
	if _, err := AcquireOn(nil, 2, nil); err == nil {
		t.Error("AcquireOn accepted a nil graph")
	}
	if _, err := AcquireOn(heavy, 0, nil); err == nil {
		t.Error("AcquireOn accepted zero processors")
	}
}

func TestSpeedsScaleExecution(t *testing.T) {
	g := speedsTestGraph(t)
	s := New(g, 2)
	if err := s.SetSpeeds([]float64{1.0, 2.0}); err != nil {
		t.Fatal(err)
	}
	// Defensive copy: mutating the caller's vector must not leak in.
	sp := s.Speeds()
	if len(sp) != 2 || sp[0] != 1.0 || sp[1] != 2.0 {
		t.Fatalf("Speeds() = %v", sp)
	}
	if got := s.ExecTime(0, 0); got != 5 {
		t.Errorf("ExecTime(n0, p0) = %d, want 5", got)
	}
	if got := s.ExecTime(0, 1); got != 3 { // ceil(5/2)
		t.Errorf("ExecTime(n0, p1) = %d, want 3", got)
	}
	s.MustPlace(0, 1, 0)
	if f := s.FinishOf(0); f != 3 {
		t.Errorf("FinishOf(n0) = %d, want 3", f)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Reset drops the speed vector: the next user of a pooled schedule
	// must get the homogeneous model back.
	s.Reset(g, 2)
	if s.Speeds() != nil {
		t.Errorf("Speeds() after Reset = %v, want nil", s.Speeds())
	}
	if got := s.ExecTime(0, 1); got != 5 {
		t.Errorf("ExecTime after Reset = %d, want weight 5", got)
	}
}
