package ft

import (
	"fmt"
	"reflect"
	"slices"
	"sync"

	"repro/internal/dag"
)

// RepairWatch checks every repair pass of the runs made while it is
// installed: against the definitional repair, and for the invariants a
// placement must keep. Only one may be installed at a time.
type RepairWatch struct {
	mu             sync.Mutex
	passes, aborts int
	err            error
}

// WatchRepairs installs a RepairWatch on the repair hook.
func WatchRepairs() *RepairWatch {
	w := &RepairWatch{}
	repairHook = w.check
	return w
}

// Stop removes the watch and reports the passes it checked, how many
// of them aborted, and the first failure.
func (w *RepairWatch) Stop() (passes, aborts int, err error) {
	repairHook = nil
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.passes, w.aborts, w.err
}

func (w *RepairWatch) check(rt *runtime) {
	rt.finishPass()
	err := checkRepair(rt)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.passes++
	if rt.aborted {
		w.aborts++
	}
	if err != nil && w.err == nil {
		w.err = fmt.Errorf("trial %d, repair pass at %d: %w", rt.trial, rt.now, err)
	}
}

// finishPass places every unit the live repair pass has left, as an
// eager pass would have at the crash.
func (rt *runtime) finishPass() {
	for rt.unplaced > 0 {
		rt.placeNext()
	}
}

// leftToPass reports whether the last repair pass had unit v to place:
// neither finished nor in flight at the crash.
func (rt *runtime) leftToPass(v int32) bool {
	m := rt.mark[v]
	return m == rt.pass+markUnplaced || m == rt.pass+markPlaced
}

// LazyMatchesFull runs one trial of x twice: with its repair passes
// placing on demand, and with each pass run to completion before its
// copies are released. It reports the first difference between the two
// runs' Results, event counts and stall counts, and how many units the
// on-demand passes had left unplaced when they first suspended.
func LazyMatchesFull(x *Exec, opts Options, trial int) (deferred int, err error) {
	pol, err := x.check(&opts)
	if err != nil {
		return 0, err
	}
	type outcome struct {
		res            Result
		events, stalls int64
	}
	run := func() outcome {
		rt := x.execute(&opts, pol, trial)
		o := outcome{rt.result(), rt.events, rt.stalls}
		rt.release()
		return o
	}
	lazy := run()
	saved := repairHook
	repairHook = func(rt *runtime) {
		deferred += rt.unplaced
		rt.finishPass()
	}
	full := run()
	repairHook = saved
	if !reflect.DeepEqual(lazy, full) {
		return deferred, fmt.Errorf("trial %d: on-demand passes give %+v, full passes %+v", trial, lazy, full)
	}
	return deferred, nil
}

// interval is one task's occupation of a processor.
type interval struct {
	v    int32
	s, f int64
}

// checkRepair checks the repair pass that just ran on rt, before its
// copies are released. It pins every finished task at its winning copy
// and every copy in flight, each exactly once, and requires the pass to
// have left exactly the other tasks to place. Then the pass's own
// placements must keep what placing them on a schedule would assert:
// no two intervals on a processor overlap, every start is at or after
// its parents' arrivals and its processor's availability, every rest
// task is queued exactly once and nothing else is, and nothing goes to
// a dead processor. Last, they must equal the definitional repair:
// list scheduling in (b-level desc, id asc) order over the ready tasks,
// each on the full-scan minimum, over processors in service, of
// max(avail[p], lastFin[p], max over parents u of fin[u] + w·[at[u] != p]),
// ties to the lower index, with the repaired queues in placement order.
func checkRepair(rt *runtime) error {
	x, g := rt.x, rt.x.g
	n, procs, tc := g.NumNodes(), x.numProcs, rt.now
	avail := make([]int64, procs)
	inService := false
	for p := range avail {
		switch {
		case rt.downAt[p] < 0:
			avail[p] = tc
		default:
			avail[p] = rt.repairAt[p]
		}
		inService = inService || avail[p] != never
	}
	at := make([]int32, n)
	fin := make([]int64, n)
	for v := range at {
		at[v] = -1
	}
	busy := make([][]interval, procs)
	lastFin := make([]int64, procs)
	pin := func(v int32, c *copyRec) error {
		if at[v] >= 0 {
			return fmt.Errorf("task %d pinned twice", v)
		}
		at[v], fin[v] = c.proc, c.finish
		busy[c.proc] = append(busy[c.proc], interval{v, c.start, c.finish})
		lastFin[c.proc] = max(lastFin[c.proc], c.finish)
		return nil
	}
	for v := int32(0); v < int32(n); v++ {
		if rt.done[v] {
			if err := pin(v, &rt.copies[rt.won[v]]); err != nil {
				return err
			}
		}
	}
	for ci := range rt.copies {
		if c := &rt.copies[ci]; c.released && !rt.done[c.task] {
			if err := pin(c.task, c); err != nil {
				return err
			}
		}
	}
	var rest []int32
	for v := int32(0); v < int32(n); v++ {
		if (at[v] < 0) != rt.leftToPass(v) {
			return fmt.Errorf("task %d: pinned %v, left to the pass %v", v, at[v] >= 0, rt.leftToPass(v))
		}
		if at[v] < 0 {
			rest = append(rest, v)
		}
	}
	if !inService {
		if rt.aborted != (len(rest) > 0) {
			return fmt.Errorf("every processor dead, %d tasks left, aborted %v", len(rest), rt.aborted)
		}
		return nil
	}
	if rt.aborted {
		return fmt.Errorf("aborted with a processor in service")
	}
	if err := checkPlacements(rt, avail, busy, rest); err != nil {
		return err
	}

	// The definitional repair.
	order := make([][]int32, procs)
	for left := slices.Clone(rest); len(left) > 0; {
		pick := -1
		for i, v := range left {
			ready := true
			for _, pr := range g.Preds(dag.NodeID(v)) {
				ready = ready && at[pr.To] >= 0
			}
			if !ready {
				continue
			}
			if pick < 0 || x.blevel[v] > x.blevel[left[pick]] ||
				x.blevel[v] == x.blevel[left[pick]] && v < left[pick] {
				pick = i
			}
		}
		if pick < 0 {
			return fmt.Errorf("no ready task among %v", left)
		}
		v := left[pick]
		left = slices.Delete(left, pick, pick+1)
		bp, bs := -1, int64(0)
		for p := 0; p < procs; p++ {
			if avail[p] == never {
				continue
			}
			e := max(avail[p], lastFin[p])
			for _, pr := range g.Preds(dag.NodeID(v)) {
				a := fin[pr.To]
				if at[pr.To] != int32(p) {
					a += pr.Weight
				}
				e = max(e, a)
			}
			if bp < 0 || e < bs {
				bp, bs = p, e
			}
		}
		at[v], fin[v] = int32(bp), later(bs, x.execTime(v, bp))
		lastFin[bp] = fin[v]
		order[bp] = append(order[bp], v)
		c := &rt.copies[v]
		floor := bs
		if rt.opts.Sim.Policy == DispatchEager {
			floor = 0
		}
		if c.proc != at[v] || c.start != bs || c.finish != fin[v] || c.floor != floor {
			return fmt.Errorf("task %d: pass placed P%d [%d,%d) floor %d, oracle P%d [%d,%d) floor %d",
				v, c.proc, c.start, c.finish, c.floor, at[v], bs, fin[v], floor)
		}
	}
	for p := 0; p < procs; p++ {
		if !slices.Equal(rt.queue[p], order[p]) || rt.qpos[p] != 0 {
			return fmt.Errorf("P%d: pass queue %v from %d, oracle %v", p, rt.queue[p], rt.qpos[p], order[p])
		}
	}
	return nil
}

// checkPlacements checks the pass's own placements of the rest tasks
// against the pinned intervals busy: no overlap on a processor, starts
// at or after parents' arrivals and the processor's availability, each
// rest task queued exactly once and nothing else queued, and no
// placement on a dead processor.
func checkPlacements(rt *runtime, avail []int64, busy [][]interval, rest []int32) error {
	g := rt.x.g
	queued := make(map[int32]int, len(rest))
	for p := range avail {
		for _, v := range rt.queue[p] {
			queued[v]++
			if c := &rt.copies[v]; int(c.proc) != p {
				return fmt.Errorf("task %d queued on P%d, placed on P%d", v, p, c.proc)
			}
		}
	}
	for _, v := range rest {
		c := &rt.copies[v]
		if queued[v] != 1 {
			return fmt.Errorf("task %d queued %d times", v, queued[v])
		}
		delete(queued, v)
		if avail[c.proc] == never {
			return fmt.Errorf("task %d placed on dead P%d", v, c.proc)
		}
		if c.start < avail[c.proc] || c.finish < c.start {
			return fmt.Errorf("task %d placed at [%d,%d) on P%d, available from %d", v, c.start, c.finish, c.proc, avail[c.proc])
		}
		for _, pr := range g.Preds(dag.NodeID(v)) {
			w := &rt.copies[pr.To]
			arr := w.finish
			if w.proc != c.proc {
				arr += pr.Weight
			}
			if c.start < arr {
				return fmt.Errorf("task %d starts at %d before parent %d's data arrives at %d", v, c.start, pr.To, arr)
			}
		}
		busy[c.proc] = append(busy[c.proc], interval{v, c.start, c.finish})
	}
	for v := range queued {
		return fmt.Errorf("task %d queued but not left to the pass", v)
	}
	for p, ivs := range busy {
		for i, a := range ivs {
			for _, b := range ivs[i+1:] {
				if a.s < b.f && b.s < a.f {
					return fmt.Errorf("P%d: task %d [%d,%d) overlaps task %d [%d,%d)", p, a.v, a.s, a.f, b.v, b.s, b.f)
				}
			}
		}
	}
	return nil
}
