package sched

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/obs"
)

// Tasks is the processor side that every schedule model shares: one
// task timeline per processor, the per-node placement arrays, the cached
// makespan and the optional per-processor speeds. A task occupies one
// processor for ExecTime time units whatever the communication model;
// how its input data arrives is the embedding model's business (the
// clique model's Schedule in this package, the routed-link model in
// internal/machine).
//
// Place and Unplace here maintain only this shared state. Each
// embedding model shadows them with its own Place and Unplace, which
// keep the model's communication state in step, so a caller of the
// model cannot bypass it.
type Tasks struct {
	g      *dag.Graph
	procs  []Timeline
	proc   []int32 // node -> processor, -1 when unscheduled
	start  []int64
	finish []int64
	placed int

	// lastFin mirrors procs[p].LastFinish() in a flat array so the
	// non-insertion best-processor scan touches one cache line per few
	// processors instead of chasing a slot slice per processor.
	lastFin []int64

	// maxFin caches the makespan (max over lastFin): Place folds each
	// new finish in, so Makespan is O(1) instead of a scan. Unplace
	// rebuilds it from lastFin only when the removed task carried it.
	maxFin int64

	// speed optionally makes the processors heterogeneous (HEFT-style):
	// node n on processor p executes for ceil(Weight(n)/speed[p]) time
	// units. Empty means uniform unit speed, where the execution time is
	// exactly the node weight — the paper's homogeneous model.
	speed []float64
}

// NewTasks returns the empty processor side for g on numProcs
// processors, for a schedule model that embeds it.
func NewTasks(g *dag.Graph, numProcs int) Tasks {
	var t Tasks
	t.reset(g, numProcs)
	return t
}

// reset rebinds t to g on numProcs processors and empties it, reusing
// every backing array that is large enough.
func (t *Tasks) reset(g *dag.Graph, numProcs int) {
	if numProcs < 1 {
		numProcs = 1
	}
	t.g = g
	if cap(t.procs) >= numProcs {
		t.procs = t.procs[:numProcs]
		for i := range t.procs {
			t.procs[i].reset()
		}
	} else {
		// Carry the old timelines over so their slot capacity survives.
		old := t.procs[:cap(t.procs)]
		for i := range old {
			old[i].reset()
		}
		t.procs = make([]Timeline, numProcs)
		copy(t.procs, old)
	}
	t.lastFin = resize(t.lastFin, numProcs)
	clear(t.lastFin)
	n := g.NumNodes()
	t.proc = resize(t.proc, n)
	t.start = resize(t.start, n)
	t.finish = resize(t.finish, n)
	clear(t.start)
	clear(t.finish)
	for i := range t.proc {
		t.proc[i] = -1
	}
	t.placed = 0
	t.maxFin = 0
	// Truncate rather than drop the speed vector, so a pooled schedule
	// keeps its capacity.
	t.speed = t.speed[:0]
}

// SetSpeeds makes the processors heterogeneous: node n on processor p
// executes for ceil(Weight(n)/speeds[p]) time units. It must be called
// on an empty schedule (speeds change every execution time, so placed
// slots would become inconsistent), with one positive factor per
// processor. The vector is copied. A uniform all-ones vector reproduces
// the homogeneous model exactly: ceil(w/1) == w. Link transfer costs
// are unaffected.
func (t *Tasks) SetSpeeds(speeds []float64) error {
	if t.placed != 0 {
		return fmt.Errorf("sched: SetSpeeds on a schedule with %d placed tasks", t.placed)
	}
	if len(speeds) != len(t.procs) {
		return fmt.Errorf("sched: %d speed factors for %d processors", len(speeds), len(t.procs))
	}
	for p, sp := range speeds {
		if !(sp > 0) || math.IsInf(sp, 1) {
			return fmt.Errorf("sched: speed factor %g for processor %d must be positive and finite", sp, p)
		}
	}
	t.speed = append(t.speed[:0], speeds...)
	return nil
}

// Speeds returns the per-processor speed vector, or nil for uniform unit
// speeds. The slice is shared with the schedule and must not be modified.
func (t *Tasks) Speeds() []float64 {
	if len(t.speed) == 0 {
		return nil
	}
	return t.speed
}

// ExecTime returns the execution time of node n on processor p:
// ceil(Weight(n)/speed[p]), or exactly the weight under uniform speeds.
func (t *Tasks) ExecTime(n dag.NodeID, p int) int64 {
	return ScaledTime(t.g.Weight(n), t.speed, p)
}

// ScaledTime returns the execution time of work w on processor p under
// the speed vector speeds: ceil(w/speeds[p]), or exactly w when speeds
// is empty (uniform unit speeds). It is the rounding rule of ExecTime,
// shared with kernels that compute start times without a schedule.
func ScaledTime(w int64, speeds []float64, p int) int64 {
	if len(speeds) == 0 {
		return w
	}
	return int64(math.Ceil(float64(w) / speeds[p]))
}

// Graph returns the task graph this schedule is for.
func (t *Tasks) Graph() *dag.Graph { return t.g }

// NumProcs returns the number of processors available to the schedule.
func (t *Tasks) NumProcs() int { return len(t.procs) }

// IsScheduled reports whether node n has been placed.
func (t *Tasks) IsScheduled(n dag.NodeID) bool { return t.proc[n] >= 0 }

// Complete reports whether every node has been placed.
func (t *Tasks) Complete() bool { return t.placed == t.g.NumNodes() }

// Placed returns the number of nodes placed so far.
func (t *Tasks) Placed() int { return t.placed }

// ProcOf returns the processor of node n, or -1 if unscheduled.
func (t *Tasks) ProcOf(n dag.NodeID) int { return int(t.proc[n]) }

// StartOf returns the start time of a scheduled node.
func (t *Tasks) StartOf(n dag.NodeID) int64 { return t.start[n] }

// FinishOf returns the finish time of a scheduled node.
func (t *Tasks) FinishOf(n dag.NodeID) int64 { return t.finish[n] }

// LastFinish returns the finish time of processor p's last slot, 0
// when p is idle: the earliest start of a non-insertion placement there.
func (t *Tasks) LastFinish(p int) int64 { return t.lastFin[p] }

// Slots returns the timeline of processor p, sorted by start time. The
// returned slice is shared with the schedule and must not be modified.
func (t *Tasks) Slots(p int) []Slot { return t.procs[p].Slots() }

// EarliestFit returns the earliest start >= ready of a slot of the given
// duration on processor p; see Timeline.EarliestFit.
func (t *Tasks) EarliestFit(p int, ready, duration int64, insertion bool) int64 {
	return t.procs[p].EarliestFit(ready, duration, insertion)
}

// CheckPlace returns the error a placement of node n on processor p at
// start would raise before any slot is searched: n already scheduled,
// the processor out of range, or a negative start time.
func (t *Tasks) CheckPlace(n dag.NodeID, p int, start int64) error {
	if t.proc[n] >= 0 {
		return fmt.Errorf("sched: node %d already scheduled", n)
	}
	if p < 0 || p >= len(t.procs) {
		return fmt.Errorf("sched: processor %d out of range [0,%d)", p, len(t.procs))
	}
	if start < 0 {
		return fmt.Errorf("sched: negative start time %d for node %d", start, n)
	}
	return nil
}

// Place inserts node n's slot [start, finish) on processor p and records
// the placement. It assumes CheckPlace passed. Schedule models shadow it
// with their own Place.
func (t *Tasks) Place(n dag.NodeID, p int, start, finish int64) error {
	if err := t.procs[p].Insert(Slot{Node: n, Start: start, Finish: finish}); err != nil {
		return fmt.Errorf("sched: node %d on P%d: %w", n, p, err)
	}
	t.record(n, p, start, finish)
	return nil
}

// record notes an inserted slot in the placement arrays, the
// last-finish mirror and the makespan. It is small enough to inline,
// which keeps the clique model's commit, every list scheduler's hot
// path, free of a call Tasks.Place would add.
func (t *Tasks) record(n dag.NodeID, p int, start, finish int64) {
	t.proc[n] = int32(p)
	t.start[n] = start
	t.finish[n] = finish
	t.placed++
	if finish > t.lastFin[p] {
		t.lastFin[p] = finish
	}
	if finish > t.maxFin {
		t.maxFin = finish
	}
}

// Unplace removes node n's slot and reports whether n was placed.
// Schedule models shadow it with their own Unplace.
func (t *Tasks) Unplace(n dag.NodeID) bool {
	p := t.proc[n]
	if p < 0 {
		return false
	}
	t.procs[p].Remove(n, t.start[n])
	t.lastFin[p] = t.procs[p].LastFinish()
	removed := t.finish[n]
	t.proc[n] = -1
	t.start[n] = 0
	t.finish[n] = 0
	t.placed--
	if removed == t.maxFin {
		t.maxFin = 0
		for _, f := range t.lastFin {
			if f > t.maxFin {
				t.maxFin = f
			}
		}
	}
	return true
}

// Makespan returns the schedule length from the incrementally
// maintained cache: Place folds each new finish time into a running
// maximum over the last-finish mirror, so the query is O(1) instead of
// a scan over all processors. 0 for an empty schedule.
func (t *Tasks) Makespan() int64 { return t.maxFin }

// Length returns the schedule length (makespan): the latest finish time
// over all processors, 0 for an empty schedule.
func (t *Tasks) Length() int64 { return t.maxFin }

// ProcessorsUsed returns the number of processors with at least one task
// (paper section 6.4.2).
func (t *Tasks) ProcessorsUsed() int {
	used := 0
	for i := range t.procs {
		if t.procs[i].Len() > 0 {
			used++
		}
	}
	return used
}

// NSL returns the normalized schedule length: the makespan divided by the
// sum of computation costs on a critical path (paper section 6). Only
// meaningful for complete schedules; returns 0 when the denominator is 0.
func (t *Tasks) NSL() float64 {
	den := dag.CPComputationSum(t.g)
	if den == 0 {
		return 0
	}
	return float64(t.Length()) / float64(den)
}

// Validate checks the processor side: timelines are sorted and
// non-overlapping, slot durations equal execution times, slots agree
// with the placement arrays, no node finishes before it starts, and the
// placed counter is right. Schedule models add their communication
// checks.
func (t *Tasks) Validate() error {
	for p := range t.procs {
		if err := t.procs[p].Validate(); err != nil {
			return fmt.Errorf("sched: P%d: %w", p, err)
		}
		for _, sl := range t.procs[p].Slots() {
			if sl.Finish-sl.Start != t.ExecTime(sl.Node, p) {
				return fmt.Errorf("sched: node %d duration %d != execution time %d",
					sl.Node, sl.Finish-sl.Start, t.ExecTime(sl.Node, p))
			}
			if t.proc[sl.Node] != int32(p) || t.start[sl.Node] != sl.Start {
				return fmt.Errorf("sched: node %d slot disagrees with placement arrays", sl.Node)
			}
		}
	}
	count := 0
	for v := range t.proc {
		if t.proc[v] < 0 {
			continue
		}
		count++
		if t.finish[v] < t.start[v] {
			return fmt.Errorf("sched: node %d finishes at %d before it starts at %d", v, t.finish[v], t.start[v])
		}
	}
	if count != t.placed {
		return fmt.Errorf("sched: placed counter %d != %d placed nodes", t.placed, count)
	}
	return nil
}

// String lists the busy processors, one line each with their slots in
// start order. Schedule models print it under their own header line.
func (t *Tasks) String() string {
	out := ""
	for p := range t.procs {
		if t.procs[p].Len() == 0 {
			continue
		}
		out += fmt.Sprintf("P%d:", p)
		for _, sl := range t.procs[p].Slots() {
			out += fmt.Sprintf(" n%d[%d,%d)", sl.Node, sl.Start, sl.Finish)
		}
		out += "\n"
	}
	return out
}

// traceCandidateCap bounds the candidate processors recorded per
// placement: the UNC class runs with one processor per node, and a
// million-node trace recording a million ESTs per record would be
// useless as well as enormous. The cap matches the BNPProcs ceiling, so
// every bounded-processor run records its full candidate set.
const traceCandidateCap = 32

// TracePlacement emits the decision record for an imminent placement of
// node n on processor p over [start, finish), with the candidate ESTs
// the model's own est query gives on each processor. It must run before
// the slot is inserted, so the candidates are exactly the values the
// scheduler could have seen when it chose; est must be a pure query, so
// tracing cannot change the schedule.
func (t *Tasks) TracePlacement(tr *obs.Tracer, n dag.NodeID, p int, start, finish int64,
	est func(n dag.NodeID, p int, insertion bool) (int64, bool)) {
	// A start before the processor's last finish means the slot went
	// into an idle gap: an insertion placement.
	insertion := start < t.lastFin[p]
	cands := tr.CandidateBuf()
	np := min(len(t.procs), traceCandidateCap)
	for q := 0; q < np; q++ {
		e, ok := est(n, q, insertion)
		if !ok {
			// Cluster-class schedulers may place a node before all its
			// parents; there is no candidate set to report then.
			cands = cands[:0]
			break
		}
		cands = append(cands, obs.Candidate{Proc: int32(q), EST: e})
	}
	tr.Placement(int32(n), int32(p), start, finish, insertion, cands)
}
