package machine

import (
	"math"
	"testing"

	"repro/internal/dag"
)

func TestAPNSetSpeedsRejections(t *testing.T) {
	b := dag.NewBuilder()
	n0 := b.AddNode(6)
	n1 := b.AddNode(4)
	b.AddEdge(n0, n1, 3)
	g := b.MustBuild()
	s := NewSchedule(g, Ring(4))
	for _, bad := range [][]float64{
		{1.0},                  // wrong length
		{1, 1, 0, 1},           // zero
		{1, 1, -3, 1},          // negative
		{1, 1, math.Inf(1), 1}, // infinite
		{1, math.NaN(), 1, 1},  // NaN
		{1, 1, 1, 1, 1},        // wrong length
	} {
		if err := s.SetSpeeds(bad); err == nil {
			t.Errorf("SetSpeeds(%v) succeeded, want error", bad)
		}
	}
	if err := s.SetSpeeds([]float64{1, 2, 4, 1}); err != nil {
		t.Fatalf("SetSpeeds(valid): %v", err)
	}
	if got := s.ExecTime(n0, 2); got != 2 { // ceil(6/4)
		t.Errorf("ExecTime(n0, p2) = %d, want 2", got)
	}
	s.MustPlace(n0, 2, 0)
	if f := s.FinishOf(n0); f != 2 {
		t.Errorf("FinishOf(n0) = %d, want 2", f)
	}
	if err := s.SetSpeeds([]float64{1, 2, 4, 1}); err == nil {
		t.Error("SetSpeeds on a non-empty schedule succeeded, want error")
	}
}

// TestReplaySequencesHetUniform pins that a uniform speed vector
// reproduces the homogeneous replay byte-identically.
func TestReplaySequencesHetUniform(t *testing.T) {
	b := dag.NewBuilder()
	n0 := b.AddNode(3)
	n1 := b.AddNode(5)
	n2 := b.AddNode(2)
	b.AddEdge(n0, n1, 4)
	b.AddEdge(n0, n2, 1)
	g := b.MustBuild()
	topo := Chain(3)
	seqs := [][]dag.NodeID{{n0}, {n1}, {n2}}
	hom, err := ReplaySequencesHet(g, topo, seqs, nil)
	if err != nil {
		t.Fatalf("ReplaySequencesHet(nil): %v", err)
	}
	het, err := ReplaySequencesHet(g, topo, seqs, []float64{1, 1, 1})
	if err != nil {
		t.Fatalf("ReplaySequencesHet: %v", err)
	}
	if hom.String() != het.String() {
		t.Errorf("uniform het replay diverges:\nhomogeneous:\n%s\nuniform:\n%s", hom, het)
	}
}
