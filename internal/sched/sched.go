// Package sched implements the processor-schedule model shared by the BNP
// and UNC algorithm classes of Kwok & Ahmad (IPPS 1998): a set of
// homogeneous processors that are fully connected by contention-free
// links (the "clique" communication model). A message from a parent to a
// child costs the edge weight when the two tasks are on different
// processors and nothing when they are co-located.
//
// A Schedule keeps its processor side — one timeline per processor plus
// per-node placement arrays — in the embedded Tasks, and adds
// insertion and non-insertion earliest-start-time queries, placement
// and removal (for migration-style algorithms and branch-and-bound
// backtracking), and full validation of precedence,
// processor-exclusivity and duration constraints: every slot lasts
// exactly its ExecTime. Executions, whose realized durations differ,
// and the repair passes that re-place their unfinished work after a
// crash belong to internal/ft, which keeps its own runtime state.
//
// The APN class uses internal/machine instead, which embeds the same
// Tasks and schedules messages on the links of an arbitrary topology.
package sched

import (
	"fmt"
	"sync"

	"repro/internal/dag"
	"repro/internal/obs"
)

// Slot is one contiguous task execution on a processor timeline.
type Slot struct {
	Node   dag.NodeID
	Start  int64
	Finish int64
}

// Schedule is a (possibly partial) mapping of tasks to processors and
// start times under the clique communication model.
//
// Alongside the placement arrays of the embedded Tasks, the schedule
// maintains an incremental data-arrival cache: for every node it
// tracks, over the node's already scheduled parents, the top-2 values
// of finish+communication on distinct processors plus the maximum bare
// finish time. The cache is updated in O(outdegree) on Place, which
// makes DataReadyTime — and with it the non-insertion ESTOn — an O(1)
// query instead of a scan over all predecessors. Unplace marks affected children dirty; their
// cache rows are rebuilt lazily by one predecessor scan on next query.
type Schedule struct {
	Tasks

	// Data-arrival cache, one row per node, valid while dirty is unset:
	//   arrM1:  max over scheduled parents q of finish[q]+comm(q,n)
	//   arrP1:  processor of the first parent to reach arrM1 (-1 before
	//           any positive arrival)
	//   arrM2:  max over scheduled parents on processors != arrP1
	//   arrFin: max over scheduled parents of bare finish[q]
	schedPreds []int32 // number of scheduled parents
	arrM1      []int64
	arrP1      []int32
	arrM2      []int64
	arrFin     []int64
	dirty      []bool // row must be rebuilt by a predecessor scan
}

// New returns an empty schedule for g on numProcs processors.
// For UNC (unbounded-processor) algorithms pass numProcs equal to the
// number of nodes: one task per cluster is the worst case.
func New(g *dag.Graph, numProcs int) *Schedule {
	s := &Schedule{}
	s.Reset(g, numProcs)
	return s
}

// Reset rebinds the schedule to g on numProcs processors and empties it,
// reusing every backing array that is large enough. A Reset schedule is
// indistinguishable from a New one; steady-state experiment loops reset
// pooled schedules instead of allocating fresh ones.
func (s *Schedule) Reset(g *dag.Graph, numProcs int) {
	s.Tasks.reset(g, numProcs)
	n := g.NumNodes()
	s.schedPreds = resize(s.schedPreds, n)
	s.arrM1 = resize(s.arrM1, n)
	s.arrP1 = resize(s.arrP1, n)
	s.arrM2 = resize(s.arrM2, n)
	s.arrFin = resize(s.arrFin, n)
	s.dirty = resize(s.dirty, n)
	// Per-array clears compile to vectorized memclr, which beats a
	// combined loop once n reaches the scaling ladder's sizes.
	clear(s.schedPreds)
	clear(s.arrM1)
	clear(s.arrM2)
	clear(s.arrFin)
	clear(s.dirty)
	for i := 0; i < n; i++ {
		s.arrP1[i] = -1
	}
}

// resize returns a slice of length n, reusing s's backing array when it
// has the capacity. Contents are unspecified; Reset overwrites every
// element.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// pool recycles schedules between Acquire and Release so steady-state
// experiment cells reuse backing arrays instead of reallocating them.
var pool = sync.Pool{New: func() any { return new(Schedule) }}

// Acquire returns an empty schedule for g on numProcs processors,
// reusing a pooled one when available. Callers that are done with the
// schedule may hand it back with Release; keeping it forever is also
// fine — it just never returns to the pool.
func Acquire(g *dag.Graph, numProcs int) *Schedule {
	s := pool.Get().(*Schedule)
	s.Reset(g, numProcs)
	return s
}

// Release returns the schedule to the pool. The caller must not use s
// afterwards.
func (s *Schedule) Release() {
	if s == nil {
		return
	}
	s.g = nil // do not pin the graph while pooled
	pool.Put(s)
}

// Place schedules node n on processor p starting at the given time. It
// returns an error if n is already scheduled, the processor index or
// start time is invalid, or the slot would overlap an existing one.
// Place does not verify precedence feasibility; use Validate or the EST
// helpers for that — heuristics deliberately query EST first.
func (s *Schedule) Place(n dag.NodeID, p int, start int64) error {
	if err := s.CheckPlace(n, p, start); err != nil {
		return err
	}
	return s.commit(n, p, start, start+s.ExecTime(n, p))
}

// commit is Tasks.Place with the insert and the record written out, so
// the hot placement path makes no extra call, followed by folding the
// new arrival into the children's data-arrival cache rows.
func (s *Schedule) commit(n dag.NodeID, p int, start, finish int64) error {
	if t := obs.ActiveTracer(); t != nil && t.InRun() {
		// Before the insert: the record captures the pre-decision state.
		s.TracePlacement(t, n, p, start, finish, s.ESTOn)
	}
	if err := s.procs[p].Insert(Slot{Node: n, Start: start, Finish: finish}); err != nil {
		return fmt.Errorf("sched: node %d on P%d: %w", n, p, err)
	}
	s.record(n, p, start, finish)
	// Fold the new arrival into each child's data-arrival cache.
	pp := int32(p)
	for _, a := range s.g.Succs(n) {
		c := a.To
		s.schedPreds[c]++
		if s.dirty[c] {
			continue // row will be rebuilt from scratch anyway
		}
		if finish > s.arrFin[c] {
			s.arrFin[c] = finish
		}
		arr := finish + a.Weight
		switch {
		case pp == s.arrP1[c]:
			if arr > s.arrM1[c] {
				s.arrM1[c] = arr
			}
		case arr > s.arrM1[c]:
			s.arrM2[c] = s.arrM1[c]
			s.arrM1[c] = arr
			s.arrP1[c] = pp
		case arr > s.arrM2[c]:
			s.arrM2[c] = arr
		}
	}
	return nil
}

// MustPlace is Place that panics on error; schedulers use it after they
// have computed a start time from an EST query, where failure indicates
// an algorithm bug rather than a user error.
func (s *Schedule) MustPlace(n dag.NodeID, p int, start int64) {
	if err := s.Place(n, p, start); err != nil {
		panic(err)
	}
}

// Unplace removes node n from the schedule so it can be migrated or the
// search can backtrack. It is a no-op for unscheduled nodes.
func (s *Schedule) Unplace(n dag.NodeID) {
	if !s.Tasks.Unplace(n) {
		return
	}
	// Removing an arrival cannot be undone in O(1); mark each child's
	// cache row for a lazy rebuild.
	for _, a := range s.g.Succs(n) {
		s.schedPreds[a.To]--
		s.dirty[a.To] = true
	}
}

// DataReadyTime returns the earliest time all of n's input data can be
// available on processor p: the max over parents of the parent's finish
// time plus the edge cost if the parent sits on a different processor.
// ok is false if some parent is not yet scheduled.
//
// The query is answered in O(1) from the incremental arrival cache.
// With M1 the maximum finish+comm over parents (on processor P1), M2
// the maximum over parents on other processors, and F the maximum bare
// finish: querying p != P1 yields M1 (every co-located parent's bare
// finish is dominated by its own finish+comm <= M1); querying p == P1
// removes P1's communication edge, leaving max(M2, F) — F is safe to
// take over all parents because a parent off p has bare finish <= its
// finish+comm <= M2.
func (s *Schedule) DataReadyTime(n dag.NodeID, p int) (drt int64, ok bool) {
	estQueries.Inc()
	if int(s.schedPreds[n]) != s.g.InDegree(n) {
		return 0, false
	}
	if s.dirty[n] {
		s.rebuildArrival(n)
	}
	if s.arrP1[n] != int32(p) {
		return s.arrM1[n], true
	}
	drt = s.arrM2[n]
	if f := s.arrFin[n]; f > drt {
		drt = f
	}
	return drt, true
}

// rebuildArrival recomputes node n's data-arrival cache row with one
// scan over its (fully scheduled) predecessors, after Unplace
// invalidated it.
func (s *Schedule) rebuildArrival(n dag.NodeID) {
	estRebuilds.Inc()
	var m1, m2, fmax int64
	p1 := int32(-1)
	for _, pr := range s.g.Preds(n) {
		f := s.finish[pr.To]
		if f > fmax {
			fmax = f
		}
		arr := f + pr.Weight
		pp := s.proc[pr.To]
		switch {
		case pp == p1:
			if arr > m1 {
				m1 = arr
			}
		case arr > m1:
			m2 = m1
			m1 = arr
			p1 = pp
		case arr > m2:
			m2 = arr
		}
	}
	s.arrM1[n] = m1
	s.arrP1[n] = p1
	s.arrM2[n] = m2
	s.arrFin[n] = fmax
	s.dirty[n] = false
}

// ESTOn returns the earliest start time of node n on processor p.
// With insertion enabled the earliest sufficient idle gap at or after the
// data-ready time is used (MCP/ISH/DCP style); otherwise the node can
// only go after the last task on p (HLFET/ETF/DLS style). ok is false if
// a parent is unscheduled.
func (s *Schedule) ESTOn(n dag.NodeID, p int, insertion bool) (est int64, ok bool) {
	drt, ok := s.DataReadyTime(n, p)
	if !ok {
		return 0, false
	}
	if !insertion {
		// Non-insertion placement never looks at gaps; the open-ended
		// slot after the last task is read off the flat mirror.
		if lf := s.lastFin[p]; lf > drt {
			return lf, true
		}
		return drt, true
	}
	return s.procs[p].EarliestFit(drt, s.ExecTime(n, p), insertion), true
}

// BestEST returns the processor giving the smallest EST for n over all
// processors, breaking ties toward lower processor indices. ok is false
// if a parent is unscheduled.
func (s *Schedule) BestEST(n dag.NodeID, insertion bool) (proc int, est int64, ok bool) {
	if !insertion {
		return s.BestESTNonInsertion(n)
	}
	for p := range s.procs {
		e, k := s.ESTOn(n, p, insertion)
		if !k {
			return -1, 0, false
		}
		if p == 0 || e < est {
			proc, est = p, e
		}
	}
	return proc, est, true
}

// BestESTNonInsertion is BestEST(n, false) on the fast path: the cached
// arrival row gives the data-ready time as one of two precomputed
// values (co-located with the dominant parent or not), so the scan over
// processors reduces to a tight loop over the flat last-finish array.
//
// The scan stops at its lower bound. Every processor other than the
// dominant parent's p1 starts n no earlier than M1, so once the best
// EST is down to M1 no later processor but p1 can beat it (ties keep
// the lower index): the scan jumps to p1 if it lies ahead and stops.
// The result is exactly the full scan's.
func (s *Schedule) BestESTNonInsertion(n dag.NodeID) (proc int, est int64, ok bool) {
	estQueries.Inc()
	if int(s.schedPreds[n]) != s.g.InDegree(n) {
		return -1, 0, false
	}
	if s.dirty[n] {
		s.rebuildArrival(n)
	}
	m1 := s.arrM1[n]
	p1 := int(s.arrP1[n])
	mloc := s.arrM2[n]
	if f := s.arrFin[n]; f > mloc {
		mloc = f
	}
	proc = -1
	lastFin := s.lastFin
	for p, end := 0, len(lastFin); p < end; p++ {
		drt := m1
		if p == p1 {
			drt = mloc
		}
		if lf := lastFin[p]; lf > drt {
			drt = lf
		}
		if proc == -1 || drt < est {
			proc, est = p, drt
			if drt <= m1 {
				if p1 <= p {
					break
				}
				// Only p1 can still win: evaluate it next, and last.
				p, end = p1-1, p1+1
			}
		}
	}
	return proc, est, true
}

// Validate checks that the partial or complete schedule is consistent:
// the processor side (see Tasks.Validate), and that every placed node's
// parents are placed and its data arrives in time under the clique
// model.
func (s *Schedule) Validate() error {
	if err := s.Tasks.Validate(); err != nil {
		return err
	}
	for v := 0; v < s.g.NumNodes(); v++ {
		n := dag.NodeID(v)
		if s.proc[n] < 0 {
			continue
		}
		for _, pr := range s.g.Preds(n) {
			if s.proc[pr.To] < 0 {
				return fmt.Errorf("sched: node %d scheduled before parent %d", n, pr.To)
			}
			arrival := s.finish[pr.To]
			if s.proc[pr.To] != s.proc[n] {
				arrival += pr.Weight
			}
			if s.start[n] < arrival {
				return fmt.Errorf("sched: node %d starts at %d before data from parent %d arrives at %d",
					n, s.start[n], pr.To, arrival)
			}
		}
	}
	return nil
}

// String renders the schedule as a compact per-processor listing, for
// debugging and the cmd tools.
func (s *Schedule) String() string {
	return fmt.Sprintf("schedule length=%d procs=%d\n", s.Length(), s.ProcessorsUsed()) + s.Tasks.String()
}
