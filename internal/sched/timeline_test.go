package sched

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dag"
)

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

// checkTimelineOps decodes ops, three bytes an operation, into a
// sequence of reservations, zero-length insertions and hinted removals
// on one timeline, and checks each against the reference operations on
// a twin that only uses EarliestFit, Insert and Remove:
//   - Reserve returns the start EarliestFit(ready, d, true) gives and
//     the index of its slot, and leaves exactly the slots Insert of
//     that slot leaves;
//   - RemoveHinted with an exact, stale or out-of-range hint, or for an
//     absent slot, equals Remove.
//
// Durations include zero, and zero-length slots are inserted at the
// starts of existing slots, so slots share starts. Node IDs are unique,
// as (node, start) identifies a slot.
func checkTimelineOps(t *testing.T, ops []byte) {
	t.Helper()
	var tl, ref Timeline
	next := dag.NodeID(0)
	for k := 0; k+3 <= len(ops); k += 3 {
		op, a, b := ops[k], int64(ops[k+1]), int64(ops[k+2])
		n := len(ref.slots)
		switch {
		case op%4 < 2 || n == 0:
			ready, d := a%40, b%4
			want := ref.EarliestFit(ready, d, true)
			start, i := tl.Reserve(next, ready, d)
			if start != want {
				t.Fatalf("op %d: Reserve(ready %d, d %d) = %d, EarliestFit says %d", k/3, ready, d, start, want)
			}
			if err := ref.Insert(Slot{Node: next, Start: start, Finish: start + d}); err != nil {
				t.Fatalf("op %d: Insert of the reserved slot: %v", k/3, err)
			}
			if i < 0 || i >= tl.Len() || tl.slots[i].Node != next {
				t.Fatalf("op %d: Reserve returned index %d, not its slot's (timeline %v)", k/3, i, tl.slots)
			}
			next++
		case op%4 == 2:
			start := ref.slots[a%int64(n)].Start
			if b%2 == 1 {
				start = ref.slots[a%int64(n)].Finish
			}
			s := Slot{Node: next, Start: start, Finish: start}
			errRef, err := ref.Insert(s), tl.Insert(s)
			if (errRef == nil) != (err == nil) {
				t.Fatalf("op %d: Insert disagrees: %v vs %v", k/3, err, errRef)
			}
			next++
		default:
			i := int(a) % n
			s := ref.slots[i]
			hint := i
			switch b % 4 {
			case 1: // stale: another slot's index
				hint = (i + 1 + int(b/4)) % n
			case 2: // out of range
				hint = []int{-1, n, n + int(b)}[int(b/4)%3]
			case 3: // absent slot
				s.Node = next
			}
			want := ref.Remove(s.Node, s.Start)
			if got := tl.RemoveHinted(s.Node, s.Start, hint); got != want {
				t.Fatalf("op %d: RemoveHinted(n%d, %d, hint %d) = %v, Remove says %v", k/3, s.Node, s.Start, hint, got, want)
			}
		}
		if !slices.Equal(tl.slots, ref.slots) {
			t.Fatalf("op %d: timeline %v, reference %v", k/3, tl.slots, ref.slots)
		}
		if err := tl.Validate(); err != nil {
			t.Fatalf("op %d: %v", k/3, err)
		}
	}
}

// TestTimelineReserveMatchesInsert runs checkTimelineOps on random
// operation sequences.
func TestTimelineReserveMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, 3*(1+rng.Intn(60)))
		rng.Read(ops)
		checkTimelineOps(t, ops)
	}
}

// FuzzTimelineReserve is the fuzz form of
// TestTimelineReserveMatchesInsert.
func FuzzTimelineReserve(f *testing.F) {
	f.Add([]byte{0, 3, 2, 1, 0, 0, 2, 0, 0, 0, 0, 5, 3, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 1, 1, 1, 0, 3, 3, 1, 6, 3, 2, 9, 0, 7, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkTimelineOps(t, ops)
	})
}
