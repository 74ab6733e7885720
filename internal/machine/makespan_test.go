package machine

import (
	"testing"

	"repro/internal/dag"
)

// TestMakespanCacheAPN checks the cached makespan against a full
// timeline scan through placements and an unplace of the carrying
// task.
func TestMakespanCacheAPN(t *testing.T) {
	b := dag.NewBuilder()
	a := b.AddNode(3)
	c := b.AddNode(4)
	d := b.AddNode(5)
	b.AddEdge(a, d, 2)
	g := b.MustBuild()
	s := NewSchedule(g, Chain(3))
	scan := func() int64 {
		var max int64
		for p := 0; p < s.NumProcs(); p++ {
			if sl := s.Slots(p); len(sl) > 0 && sl[len(sl)-1].Finish > max {
				max = sl[len(sl)-1].Finish
			}
		}
		return max
	}
	if s.Makespan() != 0 {
		t.Fatalf("empty Makespan = %d", s.Makespan())
	}
	s.MustPlace(a, 0, 0)
	s.MustPlace(c, 1, 0)
	est, ok := s.ESTOn(d, 2, false)
	if !ok {
		t.Fatal("EST for d failed")
	}
	s.MustPlace(d, 2, est)
	if got, want := s.Makespan(), scan(); got != want || s.Length() != want {
		t.Fatalf("Makespan %d / Length %d, scan says %d", got, s.Length(), want)
	}
	// d carries the maximum; removing it must fall back to the scan.
	if err := s.Unplace(d); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Makespan(), scan(); got != want {
		t.Fatalf("after unplace: Makespan %d != scanned %d", got, want)
	}
}
