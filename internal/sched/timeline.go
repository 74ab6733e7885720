package sched

import (
	"fmt"
	"sort"

	"repro/internal/dag"
)

// Timeline is a sorted, non-overlapping sequence of slots on one
// exclusive resource: a processor in this package, a network link in
// internal/machine. The zero value is an empty timeline.
type Timeline struct {
	slots []Slot
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
	// Slots finishing at or before ready cannot bound the search: the
	// gap start is clamped to ready and a usable gap must begin at or
	// after it. Binary-search past them; timelines are finish-sorted.
	prevFinish := int64(0)
	first := sort.Search(len(tl.slots), func(i int) bool { return tl.slots[i].Finish > ready })
	for i := first; i < len(tl.slots); i++ {
		gapStart := prevFinish
		if gapStart < ready {
			gapStart = ready
		}
		if tl.slots[i].Start-gapStart >= duration {
			return gapStart
		}
		prevFinish = tl.slots[i].Finish
	}
	if prevFinish < ready {
		return ready
	}
	return prevFinish
}

// Insert adds a slot, keeping the timeline sorted. It returns an error if
// the slot would overlap an existing one. A zero-length slot touches but
// does not overlap a slot that starts where it sits, and the new slot
// goes after the zero-length slots sharing its start: slots that share a
// start keep their insertion order, which list schedulers make
// topological, so replaying a processor's slots in order never runs a
// zero-weight child before its co-located zero-weight parent.
func (tl *Timeline) Insert(s Slot) error {
	i := sort.Search(len(tl.slots), func(i int) bool { return tl.slots[i].Start >= s.Start })
	for i < len(tl.slots) && tl.slots[i].Finish == s.Start {
		i++
	}
	if i > 0 && tl.slots[i-1].Finish > s.Start {
		prev := tl.slots[i-1]
		return fmt.Errorf("sched: slot n%d[%d,%d) overlaps n%d[%d,%d)",
			s.Node, s.Start, s.Finish, prev.Node, prev.Start, prev.Finish)
	}
	if i < len(tl.slots) && tl.slots[i].Start < s.Finish {
		next := tl.slots[i]
		return fmt.Errorf("sched: slot n%d[%d,%d) overlaps n%d[%d,%d)",
			s.Node, s.Start, s.Finish, next.Node, next.Start, next.Finish)
	}
	tl.slots = append(tl.slots, Slot{})
	copy(tl.slots[i+1:], tl.slots[i:])
	tl.slots[i] = s
	return nil
}

// Remove deletes the slot identified by (node, start) and reports whether
// it was present. The slot is located by binary search on the start
// time; only zero-duration slots can share a start, so at most a couple
// of entries are inspected after the search.
func (tl *Timeline) Remove(node dag.NodeID, start int64) bool {
	i := sort.Search(len(tl.slots), func(i int) bool { return tl.slots[i].Start >= start })
	for ; i < len(tl.slots) && tl.slots[i].Start == start; i++ {
		if tl.slots[i].Node == node {
			tl.slots = append(tl.slots[:i], tl.slots[i+1:]...)
			return true
		}
	}
	return false
}

// reset empties the timeline, keeping the slot capacity for reuse.
func (tl *Timeline) reset() { tl.slots = tl.slots[:0] }

// Validate checks the slots are sorted and non-overlapping.
func (tl *Timeline) Validate() error {
	for i := 1; i < len(tl.slots); i++ {
		if tl.slots[i-1].Finish > tl.slots[i].Start {
			return fmt.Errorf("sched: timeline slots %d and %d overlap", i-1, i)
		}
	}
	return nil
}
