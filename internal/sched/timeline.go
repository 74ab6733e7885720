package sched

import (
	"fmt"

	"repro/internal/dag"
)

// gapBlock is the number of consecutive slots one gap summary covers.
const gapBlock = 32

// Timeline is a sorted, non-overlapping sequence of slots on one
// exclusive resource: a processor in this package, a network link in
// internal/machine. The zero value is an empty timeline.
type Timeline struct {
	slots []Slot
	// maxGap[b] is the largest gap before a slot of block b, the slots
	// [b*gapBlock, (b+1)*gapBlock); the gap before slot i runs from the
	// finish of slot i-1 (0 for slot 0) to the start of slot i. The
	// summaries cover a prefix of the full blocks: inserting or removing
	// slot i truncates them to block i/gapBlock, and fit appends the
	// summary of the first block past the prefix when it walks that block
	// whole without finding a gap.
	maxGap []int64
}

// Len returns the number of slots.
func (tl *Timeline) Len() int { return len(tl.slots) }

// Slots returns the slots in start order. The slice is shared with the
// timeline and must not be modified.
func (tl *Timeline) Slots() []Slot { return tl.slots }

// LastFinish returns the finish time of the final slot, 0 when empty.
func (tl *Timeline) LastFinish() int64 {
	if len(tl.slots) == 0 {
		return 0
	}
	return tl.slots[len(tl.slots)-1].Finish
}

// EarliestFit returns the earliest start time >= ready at which a slot of
// the given duration fits. With insertion enabled, idle gaps between
// existing slots are considered (MCP/ISH/DCP style); otherwise only the
// open-ended gap after the last slot is used (HLFET/ETF/DLS style).
func (tl *Timeline) EarliestFit(ready, duration int64, insertion bool) int64 {
	if len(tl.slots) == 0 {
		return ready
	}
	if !insertion {
		if last := tl.LastFinish(); last > ready {
			return last
		}
		return ready
	}
	start, _ := tl.fit(ready, duration)
	return start
}

// fit is EarliestFit in insertion mode. It also returns the index of the
// first slot after the gap it found, len(slots) for the open end.
func (tl *Timeline) fit(ready, duration int64) (start int64, i int) {
	s := tl.slots
	if len(s) == 0 {
		return ready, 0
	}
	// Slots finishing at or before ready cannot bound the search: the
	// gap start is clamped to ready and a usable gap must begin at or
	// after it. Binary-search past them; timelines are finish-sorted.
	gapStart := max(ready, 0)
	i = tl.firstFinishAfter(ready)
	// Within the summarized blocks, skip every block whose widest gap is
	// too narrow; a gap clamped to ready is no wider.
	for summed := len(tl.maxGap) * gapBlock; i < summed; {
		end := i - i%gapBlock + gapBlock
		if tl.maxGap[i/gapBlock] < duration {
			i, gapStart = end, s[end-1].Finish
			continue
		}
		if gapStart, i = firstGap(s, i, end, gapStart, duration); i < end {
			return gapStart, i
		}
	}
	// Each full block past the summaries that the walk covers from its
	// first slot gets its summary on the way. Its first gap is measured
	// unclamped: the walk's own may start at ready.
	for i == len(tl.maxGap)*gapBlock && i+gapBlock <= len(s) {
		widest := s[i].Start
		if i > 0 {
			widest -= s[i-1].Finish
		}
		for end := i + gapBlock; i < end; i++ {
			gap := s[i].Start - gapStart
			if gap >= duration {
				return gapStart, i
			}
			widest = max(widest, gap)
			gapStart = s[i].Finish
		}
		tl.maxGap = append(tl.maxGap, widest)
	}
	return firstGap(s, i, len(s), gapStart, duration)
}

// firstGap walks the gaps before slots i to end-1, the first starting at
// gapStart, and returns the first at least duration wide: its start and
// the index of the slot after it, or the last finish and end when none
// is.
func firstGap(s []Slot, i, end int, gapStart, duration int64) (int64, int) {
	for ; i < end; i++ {
		if s[i].Start-gapStart >= duration {
			return gapStart, i
		}
		gapStart = s[i].Finish
	}
	return gapStart, i
}

// firstFinishAfter returns the index of the first slot finishing after t.
// Finish times never decrease along a timeline, so a binary search finds
// it; the loop is sort.Search without the closure call per probe.
func (tl *Timeline) firstFinishAfter(t int64) int {
	lo, hi := 0, len(tl.slots)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tl.slots[m].Finish > t {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// firstStartAtLeast returns the index of the first slot starting at or
// after t, by the same closure-free binary search.
func (tl *Timeline) firstStartAtLeast(t int64) int {
	lo, hi := 0, len(tl.slots)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tl.slots[m].Start >= t {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Insert adds a slot, keeping the timeline sorted. It returns an error if
// the slot would overlap an existing one. A zero-length slot touches but
// does not overlap a slot that starts where it sits, and the new slot
// goes after the zero-length slots sharing its start: slots that share a
// start keep their insertion order, which list schedulers make
// topological, so replaying a processor's slots in order never runs a
// zero-weight child before its co-located zero-weight parent.
func (tl *Timeline) Insert(s Slot) error {
	if s.Start >= tl.LastFinish() {
		// The search and insertFrom would put it at the end: every slot
		// starting at s.Start is zero-length there, and none overlaps.
		// The summaries cover only full blocks before it and stay.
		tl.slots = append(tl.slots, s)
		return nil
	}
	_, err := tl.insertFrom(tl.firstStartAtLeast(s.Start), s)
	return err
}

// Reserve adds a slot of the given duration for node at the start
// EarliestFit(ready, duration, true) returns, placed exactly where Insert
// of that slot would put it, with one search instead of two. It returns
// the start and the slot's index, which RemoveHinted takes as its hint.
// It panics if the slot overlaps one, which a fitted slot never does.
func (tl *Timeline) Reserve(node dag.NodeID, ready, duration int64) (start int64, index int) {
	start, i := tl.fit(ready, duration)
	// Every slot before i finishes by start, so Insert's search for the
	// first slot starting at or after start ends at i or earlier, on
	// zero-length slots at start that insertFrom skips from i too.
	i, err := tl.insertFrom(i, Slot{Node: node, Start: start, Finish: start + duration})
	if err != nil {
		panic(err)
	}
	return start, i
}

// insertFrom inserts s at index i, after the zero-length slots at s's
// start that follow i, and returns the index it used. The slots before
// i must start before s or be zero-length at its start. It returns an
// error, inserting nothing, if s overlaps a neighbour.
func (tl *Timeline) insertFrom(i int, s Slot) (int, error) {
	for i < len(tl.slots) && tl.slots[i].Finish == s.Start {
		i++
	}
	if i > 0 && tl.slots[i-1].Finish > s.Start {
		prev := tl.slots[i-1]
		return i, fmt.Errorf("sched: slot n%d[%d,%d) overlaps n%d[%d,%d)",
			s.Node, s.Start, s.Finish, prev.Node, prev.Start, prev.Finish)
	}
	if i < len(tl.slots) && tl.slots[i].Start < s.Finish {
		next := tl.slots[i]
		return i, fmt.Errorf("sched: slot n%d[%d,%d) overlaps n%d[%d,%d)",
			s.Node, s.Start, s.Finish, next.Node, next.Start, next.Finish)
	}
	tl.slots = append(tl.slots, Slot{})
	copy(tl.slots[i+1:], tl.slots[i:])
	tl.slots[i] = s
	tl.truncateGaps(i)
	return i, nil
}

// truncateGaps drops the gap summaries from the block of slot i on,
// after slot i was inserted or removed.
func (tl *Timeline) truncateGaps(i int) {
	if b := i / gapBlock; b < len(tl.maxGap) {
		tl.maxGap = tl.maxGap[:b]
	}
}

// removeAt deletes slot i.
func (tl *Timeline) removeAt(i int) {
	tl.slots = append(tl.slots[:i], tl.slots[i+1:]...)
	tl.truncateGaps(i)
}

// Index returns the index of the slot identified by (node, start), -1
// if there is none. The slot is located by binary search on the start
// time; only zero-duration slots can share a start, so at most a couple
// of entries are inspected after the search.
func (tl *Timeline) Index(node dag.NodeID, start int64) int {
	for i := tl.firstStartAtLeast(start); i < len(tl.slots) && tl.slots[i].Start == start; i++ {
		if tl.slots[i].Node == node {
			return i
		}
	}
	return -1
}

// Remove deletes the slot identified by (node, start) and reports whether
// it was present.
func (tl *Timeline) Remove(node dag.NodeID, start int64) bool {
	i := tl.Index(node, start)
	if i < 0 {
		return false
	}
	tl.removeAt(i)
	return true
}

// RemoveHinted is Remove given the slot's likely index, as Reserve
// returned it: removals in the reverse order of the reservations find
// every slot at its hint without a search. A stale or out-of-range hint
// falls back to Remove.
func (tl *Timeline) RemoveHinted(node dag.NodeID, start int64, hint int) bool {
	if hint >= 0 && hint < len(tl.slots) && tl.slots[hint].Node == node && tl.slots[hint].Start == start {
		tl.removeAt(hint)
		return true
	}
	return tl.Remove(node, start)
}

// reset empties the timeline, keeping the slot capacity for reuse.
func (tl *Timeline) reset() {
	tl.slots = tl.slots[:0]
	tl.maxGap = tl.maxGap[:0]
}

// Validate checks the slots are sorted and non-overlapping.
func (tl *Timeline) Validate() error {
	for i := 1; i < len(tl.slots); i++ {
		if tl.slots[i-1].Finish > tl.slots[i].Start {
			return fmt.Errorf("sched: timeline slots %d and %d overlap", i-1, i)
		}
	}
	return nil
}
