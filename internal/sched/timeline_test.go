package sched

import (
	"fmt"
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

// fitWalk is the plain gap walk that fit's block summaries shortcut,
// kept as its oracle: from the first slot finishing after ready, it
// tries every gap in order and ends at the open end.
func (tl *Timeline) fitWalk(ready, duration int64) (start int64, i int) {
	if len(tl.slots) == 0 {
		return ready, 0
	}
	prevFinish := int64(0)
	for i = tl.firstFinishAfter(ready); i < len(tl.slots); i++ {
		gapStart := max(prevFinish, ready)
		if tl.slots[i].Start-gapStart >= duration {
			return gapStart, i
		}
		prevFinish = tl.slots[i].Finish
	}
	return max(prevFinish, ready), i
}

// checkFit requires fit(ready, d) and EarliestFit in insertion mode to
// return what fitWalk returns.
func checkFit(t *testing.T, tl *Timeline, ready, d int64, where string) {
	t.Helper()
	wantStart, wantI := tl.fitWalk(ready, d)
	if start, i := tl.fit(ready, d); start != wantStart || i != wantI {
		t.Fatalf("%s: fit(ready %d, d %d) = (%d, %d), the walk says (%d, %d) (timeline %v, summaries %v)",
			where, ready, d, start, i, wantStart, wantI, tl.slots, tl.maxGap)
	}
	if got := tl.EarliestFit(ready, d, true); got != wantStart {
		t.Fatalf("%s: EarliestFit(ready %d, d %d, true) = %d, the walk says %d", where, ready, d, got, wantStart)
	}
}

// checkTimelineOps decodes ops, three bytes an operation, into a
// sequence of reservations, insertions, hinted removals and resets on
// one timeline, and checks each against the reference operations on a
// twin that only uses EarliestFit, Insert and Remove:
//   - Reserve returns the start fitWalk gives and its slot's index, no
//     lower than the walk's, and leaves exactly the slots Insert of
//     that slot leaves;
//   - Insert of a zero-length slot at an existing slot's start or
//     finish, or of a slot at or after the last finish (the append
//     path), succeeds or fails as on the twin;
//   - RemoveHinted with an exact, stale or out-of-range hint, or for an
//     absent slot, equals Remove, and so does a removal next to a block
//     boundary;
//   - after every operation, fit and EarliestFit on the timeline equal
//     fitWalk for a few ready times across its span and durations from
//     zero to above every gap.
//
// Ready times scale with the timeline's span, so searches start in
// every block, and the sequences grow to several summary blocks.
// Durations include zero, and zero-length slots share starts with
// other slots. Node IDs are unique, as (node, start) identifies a slot.
// It returns the most gap summaries the timeline held at once.
func checkTimelineOps(t *testing.T, ops []byte) (maxBlocks int) {
	t.Helper()
	var tl, ref Timeline
	next := dag.NodeID(0)
	for k := 0; k+3 <= len(ops); k += 3 {
		op, a, b := ops[k], int64(ops[k+1]), int64(ops[k+2])
		n := len(ref.slots)
		span := ref.LastFinish() + 16
		// scaled spreads a byte over the span, a little past its end.
		scaled := func(x int64) int64 { return x * span / 255 }
		switch {
		case op == 255:
			tl.reset()
			ref.reset()
		case op%8 < 4 || n == 0:
			ready, d := scaled(a), b%8
			want, wantI := ref.fitWalk(ready, d)
			start, i := tl.Reserve(next, ready, d)
			if start != want {
				t.Fatalf("op %d: Reserve(ready %d, d %d) = %d, the walk says %d", k/3, ready, d, start, want)
			}
			if err := ref.Insert(Slot{Node: next, Start: start, Finish: start + d}); err != nil {
				t.Fatalf("op %d: Insert of the reserved slot: %v", k/3, err)
			}
			if i < wantI || i >= tl.Len() || tl.slots[i].Node != next {
				t.Fatalf("op %d: Reserve returned index %d, not its slot's (timeline %v)", k/3, i, tl.slots)
			}
			next++
		case op%8 == 4 || op%8 == 5:
			var s Slot
			if op%8 == 4 {
				start := ref.slots[a%int64(n)].Start
				if b%2 == 1 {
					start = ref.slots[a%int64(n)].Finish
				}
				s = Slot{Node: next, Start: start, Finish: start}
			} else {
				start := ref.LastFinish() + a%3
				s = Slot{Node: next, Start: start, Finish: start + b%4}
			}
			errRef, err := ref.Insert(s), tl.Insert(s)
			if (errRef == nil) != (err == nil) {
				t.Fatalf("op %d: Insert disagrees: %v vs %v", k/3, err, errRef)
			}
			next++
		default:
			i := int(a) % n
			if op%8 == 7 {
				// Next to a block boundary: its last slot or its first.
				i = min(n-1, gapBlock*int(a%8)+int(b%2)-1)
				i = max(i, 0)
			}
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
		where := fmt.Sprintf("op %d", k/3)
		checkFit(t, &tl, scaled(b), a%8, where)
		checkFit(t, &tl, scaled(a), 1+b%4, where)
		checkFit(t, &tl, 0, span, where)
		checkFit(t, &ref, scaled(a), b%8, where)
		maxBlocks = max(maxBlocks, len(tl.maxGap))
	}
	return maxBlocks
}

// TestTimelineReserveMatchesInsert runs checkTimelineOps on random
// operation sequences of a few hundred operations, which grow the
// timeline past several summary blocks.
func TestTimelineReserveMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	deepest := 0
	for trial := 0; trial < 100; trial++ {
		ops := make([]byte, 3*(200+rng.Intn(400)))
		rng.Read(ops)
		deepest = max(deepest, checkTimelineOps(t, ops))
	}
	if deepest < 4 {
		t.Fatalf("the timelines held at most %d gap summaries, want sequences spanning 4 blocks", deepest)
	}
}

// TestTimelineGapSummaryBlocks walks the gap summaries through the
// edits that must truncate them: insertions and removals on both sides
// of a block boundary, zero-length slots sharing a start across one,
// appends, and a reset followed by reuse. After each edit every
// (ready, duration) pair over the span must fit where fitWalk does.
func TestTimelineGapSummaryBlocks(t *testing.T) {
	var tl Timeline
	checkAll := func(where string) {
		t.Helper()
		for ready := int64(0); ready <= tl.LastFinish()+2; ready++ {
			for d := int64(0); d <= 6; d++ {
				checkFit(t, &tl, ready, d, where)
			}
		}
	}
	// Slot k runs [3k, 3k+2): every gap is 1 wide. Each append takes
	// Insert's fast path.
	for k := 0; k < 4*gapBlock+5; k++ {
		if err := tl.Insert(Slot{Node: dag.NodeID(k), Start: int64(3 * k), Finish: int64(3*k + 2)}); err != nil {
			t.Fatal(err)
		}
	}
	checkAll("appended")
	if len(tl.maxGap) != 4 {
		t.Fatalf("%d gap summaries after full walks over 4 full blocks, want 4", len(tl.maxGap))
	}
	next := dag.NodeID(1000)
	edit := func(where string, f func() bool) {
		t.Helper()
		tl.fit(0, 1<<40) // summarize every full block
		if !f() {
			t.Fatalf("%s: edit failed (timeline %v)", where, tl.slots)
		}
		if err := tl.Validate(); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		checkAll(where)
	}
	insert := func(s Slot) func() bool {
		return func() bool { return tl.Insert(s) == nil }
	}
	remove := func(i int) func() bool {
		return func() bool { s := tl.slots[i]; return tl.RemoveHinted(s.Node, s.Start, i) }
	}
	// Widen the last gap of block 0 and the first of block 1.
	edit("remove the last slot of block 0", remove(gapBlock-1))
	edit("remove the first slot of block 1", remove(gapBlock))
	s := tl.slots[gapBlock]
	edit("insert at the start of block 1", insert(Slot{Node: next, Start: s.Start - 2, Finish: s.Start - 1}))
	next++
	// Zero-length slots sharing a start that straddles blocks 1 and 2.
	s = tl.slots[2*gapBlock]
	for k := 0; k < 3; k++ {
		edit("zero-length slot at a block's first start", insert(Slot{Node: next, Start: s.Start, Finish: s.Start}))
		next++
	}
	s = tl.slots[3*gapBlock-1]
	edit("zero-length slot at a block's last finish", insert(Slot{Node: next, Start: s.Finish, Finish: s.Finish}))
	next++
	edit("remove inside block 3", remove(3*gapBlock+2))
	last := tl.LastFinish()
	edit("append after a gap", insert(Slot{Node: next, Start: last + 7, Finish: last + 9}))
	next++
	edit("zero-length append at the last finish", insert(Slot{Node: next, Start: last + 9, Finish: last + 9}))
	next++
	edit("remove the last slot", remove(tl.Len()-1))
	tl.reset()
	if len(tl.maxGap) != 0 || tl.Len() != 0 {
		t.Fatalf("reset left %d slots and %d summaries", tl.Len(), len(tl.maxGap))
	}
	// Reuse: the new slots have gaps 4 wide, which stale summaries of
	// the old 1-wide gaps would skip.
	for k := 0; k < 2*gapBlock+1; k++ {
		if err := tl.Insert(Slot{Node: dag.NodeID(k), Start: int64(5*k + 4), Finish: int64(5*k + 5)}); err != nil {
			t.Fatal(err)
		}
	}
	checkAll("reused after reset")

	// A search that starts inside the first gap of a block sees that gap
	// clamped to its ready time, but the summary it records must hold
	// the gap whole. Blocks 0 and 1 open with gaps 4 and 5 wide; every
	// other gap is 1 wide.
	tl.reset()
	for k := 0; k < 2*gapBlock+1; k++ {
		start := int64(3*k + 4)
		if k >= gapBlock {
			start += 4
		}
		if err := tl.Insert(Slot{Node: dag.NodeID(k), Start: start, Finish: start + 2}); err != nil {
			t.Fatal(err)
		}
	}
	f := tl.slots[gapBlock-1].Finish
	checkFit(t, &tl, 2, 3, "clamped first gap of block 0")
	checkFit(t, &tl, 0, 4, "whole first gap of block 0")
	checkFit(t, &tl, f+2, 4, "clamped first gap of block 1")
	checkFit(t, &tl, f, 5, "whole first gap of block 1")
	if len(tl.maxGap) != 2 {
		t.Fatalf("%d gap summaries after walks over both full blocks, want 2", len(tl.maxGap))
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
