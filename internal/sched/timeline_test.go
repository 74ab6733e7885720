package sched

import "testing"

// TestTimelineInsertZeroLength pins how zero-length slots sit next to
// slots that share their start: a new slot goes after the zero-length
// slots at its start and before a non-empty one, so slots sharing a
// start keep their insertion order, and true overlaps are still
// rejected.
func TestTimelineInsertZeroLength(t *testing.T) {
	var tl Timeline
	for _, s := range []Slot{
		{Node: 0, Start: 0, Finish: 0},
		{Node: 1, Start: 0, Finish: 5},
		{Node: 2, Start: 5, Finish: 5},
		{Node: 3, Start: 5, Finish: 5},
		{Node: 4, Start: 5, Finish: 9},
		{Node: 5, Start: 12, Finish: 15},
		{Node: 6, Start: 12, Finish: 12},
		{Node: 7, Start: 9, Finish: 9},
	} {
		if err := tl.Insert(s); err != nil {
			t.Fatalf("insert n%d[%d,%d): %v", s.Node, s.Start, s.Finish, err)
		}
	}
	want := []int{0, 1, 2, 3, 4, 7, 6, 5}
	got := tl.Slots()
	if len(got) != len(want) {
		t.Fatalf("got %d slots, want %d", len(got), len(want))
	}
	for i, sl := range got {
		if int(sl.Node) != want[i] {
			t.Fatalf("slot %d is n%d, want n%d (timeline %v)", i, sl.Node, want[i], got)
		}
	}
	if err := tl.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, s := range []Slot{
		{Node: 8, Start: 2, Finish: 2},    // inside n1
		{Node: 9, Start: 4, Finish: 6},    // straddles n1 and n4
		{Node: 10, Start: 10, Finish: 13}, // runs into n5
		{Node: 11, Start: 0, Finish: 1},   // overlaps n1 behind n0
	} {
		if err := tl.Insert(s); err == nil {
			t.Fatalf("overlapping slot n%d[%d,%d) accepted", s.Node, s.Start, s.Finish)
		}
	}
	for _, sl := range append([]Slot(nil), got...) {
		if !tl.Remove(sl.Node, sl.Start) {
			t.Fatalf("Remove(n%d, %d) missed the slot", sl.Node, sl.Start)
		}
	}
	if tl.Len() != 0 {
		t.Fatalf("%d slots left after removing all", tl.Len())
	}
}
