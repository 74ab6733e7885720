package ft

import "repro/internal/dag"

// resubmit is the repair pass of the resubmit and checkpoint policies:
// it re-places the unfinished suffix on the processors still in
// service, swaps the runtime's queues over to the new placement and
// offers the processors their new heads.
func (rt *runtime) resubmit() {
	rt.repair()
	if repairHook != nil {
		repairHook(rt)
	}
	if rt.aborted {
		return
	}
	for p := 0; p < rt.x.numProcs; p++ {
		rt.tryRelease(p)
	}
}

// repairHook, when set, sees the runtime after every repair pass, before
// the repaired copies are released.
var repairHook func(rt *runtime)

// Unit marks of a repair pass, as offsets from its stamp rt.pass: a
// mark below the stamp is stale and means the unit had finished at the
// crash.
const (
	markUnplaced = iota // left to the pass, not placed yet
	markPlaced          // placed by the pass
	markRunning         // in flight at the crash
	markSpan            // stamp increment per pass
)

// repair list-schedules the units left at the crash, neither finished
// nor running, by descending static b-level with non-insertion
// best-EST placement on the runtime's own arrays. A processor is
// available from the crash time tc when up, from its scheduled repair
// when down, and never when dead; a running copy keeps its processor
// until its committed finish. Finished tasks need no pinning: every one
// ended by tc, which no processor in service is available before.
//
// The pass is demand-driven: it places only until every rest unit
// runnable at tc is placed, and then suspends; complete resumes it
// when a rest unit's last unfinished parent finishes, placing until
// that unit is placed, and the next crash discards it. Its inputs are
// frozen at tc: the availability floors, the in-flight copies, and
// each placement's planned finish (planFin), so every placement is the
// one an eager pass would have made at tc. Every unplaced unit keeps an
// unfinished parent, so each queue is a prefix of the eager pass's
// whose missing tail the runtime could not release from yet: releases,
// and with them the whole execution, are the eager pass's.
//
// A parent's data arrival is read off its copy. The repair policies
// keep one copy per unit, so copy u is unit u's winner once it has
// finished, in flight while it runs, and placed by the pass otherwise;
// a placed copy holds its planned interval in start and finish until
// it is released, and planFin keeps the planned finish for the
// placements after that. The repaired queues are the placement order per processor, which is
// start order since every placement starts at or after its processor's
// last finish. The pass reuses the run's scratch, and its setup walks
// only the units unfinished at the previous pass, so its cost follows
// the work left, not the graph.
func (rt *runtime) repair() {
	tc := rt.now
	x := rt.x
	x.levels()
	if rt.pass == 0 {
		rt.firstPass()
	}
	rt.pass += markSpan
	rt.passAt = tc
	rt.unplaced = 0
	rt.avail = resize(rt.avail, x.numProcs)
	rt.lastFin = resize(rt.lastFin, x.numProcs)
	rt.minAvail = never
	for p := range rt.avail {
		rt.avail[p] = rt.repairAt[p] // never while up, and for a dead processor
		if rt.downAt[p] < 0 {
			rt.avail[p] = tc
		}
		rt.minAvail = min(rt.minAvail, rt.avail[p])
	}
	// Released copies are their processors' occupants. Unstarted ones go
	// back into the pool: the repair pass may move them somewhere
	// better. Copies in flight stay, and keep their processors busy.
	for p := 0; p < x.numProcs; p++ {
		ci := rt.runningOn[p]
		if ci < 0 {
			continue
		}
		c := &rt.copies[ci]
		switch {
		case c.start > tc:
			c.epoch++
			c.released = false
			rt.runningOn[p] = -1
			rt.pending--
		case !rt.done[c.task]:
			rt.mark[c.task] = rt.pass + markRunning
			rt.planFin[c.task] = c.finish
			rt.lastFin[p] = max(rt.lastFin[p], c.finish)
		}
	}
	// A ready heap in byLevel order (b-level desc, id asc) over the units
	// whose predecessors are all placed: b-level order alone is not
	// guaranteed topological on zero-weight nodes, the ready filter is.
	// A rest unit's unplaced predecessors are its unfinished ones (deps)
	// but those in flight. The target is the last unit in byLevel order
	// that is runnable at tc.
	ready := &rt.ready
	*ready = (*ready)[:0]
	target := int32(-1)
	unfin := rt.unfin[:0]
	for _, v := range rt.unfin {
		if rt.done[v] {
			continue
		}
		unfin = append(unfin, v)
		if rt.mark[v] == rt.pass+markRunning {
			continue
		}
		rt.mark[v] = rt.pass + markUnplaced
		rt.remPreds[v] = rt.deps[v]
		rt.unplaced++
		if rt.deps[v] == 0 {
			ready.push(x.rank[v])
			target = max(target, x.rank[v])
		}
	}
	rt.unfin = unfin
	for p := 0; p < x.numProcs; p++ {
		if ci := rt.runningOn[p]; ci >= 0 && !rt.done[rt.copies[ci].task] {
			rt.readySuccs(rt.copies[ci].task)
		}
	}
	if rt.unplaced > 0 && rt.minAvail == never {
		// No processor will ever be available again; the remaining
		// tasks cannot be placed and the run is lost.
		rt.aborted = true
		rt.unplaced = 0
		return
	}
	for p := 0; p < x.numProcs; p++ {
		rt.owned[p] = true
		rt.setQueue(p, rt.own[p][:0])
		rt.qpos[p] = 0
	}
	if target >= 0 {
		rt.placeThrough(x.byLevel[target])
	}
}

// firstPass sizes the per-unit pass scratch at a run's first repair
// pass, so runs that never repair pay nothing for it, and starts the
// unfinished list. Zeroed marks are stale for every stamp.
func (rt *runtime) firstPass() {
	n := len(rt.copies)
	rt.mark = resize(rt.mark, n)
	rt.planFin = resize(rt.planFin, n)
	rt.remPreds = resize(rt.remPreds, n)
	rt.unfin = rt.unfin[:0]
	for v := int32(0); v < int32(n); v++ {
		if !rt.done[v] {
			rt.unfin = append(rt.unfin, v)
		}
	}
}

// resume continues the live repair pass when child, a unit whose
// unfinished-parent count just dropped, has become runnable without
// being placed.
func (rt *runtime) resume(child int32) {
	if rt.deps[child] == 0 && rt.mark[child] == rt.pass+markUnplaced {
		rt.placeThrough(child)
	}
}

// placeThrough places the live pass's ready units in byLevel order up
// to and including v. Every unit ahead of v in that order whose parents
// are placed goes first, exactly as in an eager pass.
func (rt *runtime) placeThrough(v int32) {
	for rt.mark[v] == rt.pass+markUnplaced {
		if len(rt.ready) == 0 {
			panic("ft: repair pass has no ready unit to place")
		}
		rt.placeNext()
	}
}

// placeNext places the live pass's next ready unit on the processor
// with its earliest non-insertion start, against the arrivals the pass
// planned. Its release floor is the repaired start; its ready time
// folds in the arrivals realized so far, and complete folds in the
// rest. A re-placement decided at tc cannot start before tc, even
// under eager dispatch.
func (rt *runtime) placeNext() {
	x := rt.x
	v := x.byLevel[rt.ready.pop()]
	preds := x.g.Preds(dag.NodeID(v))
	var arr arrivals
	for _, pr := range preds {
		w := &rt.copies[pr.To]
		fin := w.finish
		if rt.mark[pr.To] > rt.pass {
			fin = rt.planFin[pr.To] // placed or in flight: as planned at tc
		}
		arr.add(w.proc, fin, pr.Weight)
	}
	p, est := rt.bestProc(&arr, rt.minAvail)
	c := &rt.copies[v]
	c.proc = int32(p)
	c.start = est
	c.finish = later(est, x.execTime(v, p))
	rt.mark[v], rt.planFin[v] = rt.pass+markPlaced, c.finish
	rt.lastFin[p] = c.finish
	rt.setQueue(p, append(rt.queue[p], v))
	rt.unplaced--
	c.floor = est
	if rt.opts.Sim.Policy == DispatchEager {
		c.floor = 0
	}
	c.ready = max(c.floor, rt.passAt)
	c.dead = false
	for _, pr := range preds {
		u := int32(pr.To)
		if !rt.done[u] {
			continue
		}
		w := &rt.copies[u]
		a := w.finish
		if w.proc != c.proc {
			a = later(a, rt.commLag(u, dag.Arc{To: dag.NodeID(v), Weight: pr.Weight}))
		}
		c.ready = max(c.ready, a)
	}
	rt.readySuccs(v)
}

// readySuccs counts placed or in-flight unit v out of its successors'
// unplaced predecessors, pushing each successor left with none onto
// the ready heap. Every successor is a rest unit: v has not finished.
func (rt *runtime) readySuccs(v int32) {
	for _, a := range rt.x.g.Succs(dag.NodeID(v)) {
		w := int32(a.To)
		if rt.remPreds[w]--; rt.remPreds[w] == 0 {
			rt.ready.push(rt.x.rank[w])
		}
	}
}

// bestProc returns the processor with the earliest non-insertion start
// for a unit whose parents' arrivals are folded in arr, ties to the
// lower index, and that start: the max of the data-ready time, the
// processor's last finish and its availability. A dead processor's
// start is never, so it loses to any processor in service, of which
// there must be one (minAvail < never). Every processor but arr.p1
// starts the unit no earlier than lb = max(m1, minAvail), so once the
// best start is down to lb only p1 can still beat it: the scan jumps to
// p1 if it lies ahead and stops. The result is exactly the full scan's.
func (rt *runtime) bestProc(arr *arrivals, minAvail int64) (proc int, est int64) {
	lb := max(arr.m1, minAvail)
	p1 := int(arr.p1)
	proc = -1
	avail, lastFin := rt.avail, rt.lastFin
	for p, end := 0, len(avail); p < end; p++ {
		e := max(arr.on(p), lastFin[p], avail[p])
		if proc < 0 || e < est {
			proc, est = p, e
			if e <= lb {
				if p1 <= p {
					break
				}
				// Only p1 can still win: evaluate it next, and last.
				p, end = p1-1, p1+1
			}
		}
	}
	return proc, est
}

// arrivals folds a unit's parent data arrivals in one pass, for the
// repair pass and the replica placement: m1 is the latest arrival,
// first reached from processor p1 (0 while no arrival is positive), and
// m2 the latest arrival from a processor other than p1.
type arrivals struct {
	m1, m2 int64
	p1     int32
}

// add folds in a parent on processor p finishing at fin, whose data
// takes w to reach another processor.
func (a *arrivals) add(p int32, fin, w int64) {
	arr := fin + w
	switch {
	case p == a.p1:
		a.m1 = max(a.m1, arr)
	case arr > a.m1:
		a.m2, a.m1, a.p1 = a.m1, arr, p
	case arr > a.m2:
		a.m2 = arr
	}
}

// on returns the latest arrival on processor p from the parents on
// other processors: m1 anywhere but p1, m2 on p1. A parent on p itself
// delivers at its bare finish, which both callers fold in through p's
// last finish: it is no later than that, or than the crash time a
// processor in service is available from.
func (a *arrivals) on(p int) int64 {
	if int32(p) != a.p1 {
		return a.m1
	}
	return a.m2
}

// addReplicas implements the replicate policy's prepare step: the k
// tasks with the highest static b-level get one replica each on the
// processor (distinct from the primary's) that can finish it earliest
// against the static timetable, appended to that processor's queue in
// the spare capacity after its planned work.
func (rt *runtime) addReplicas(k int) {
	x := rt.x
	if x.numProcs < 2 {
		return
	}
	n := x.g.NumNodes()
	if k > n {
		k = n
	}
	x.levels()
	staticFin := func(v int32) int64 { return x.floor[v] + x.execTime(v, int(x.res[v])) }
	lastFin := resize(rt.lastFin, x.numProcs)
	for v := int32(0); v < int32(n); v++ {
		if f := staticFin(v); f > lastFin[x.res[v]] {
			lastFin[x.res[v]] = f
		}
	}
	rt.lastFin = lastFin
	for _, v := range x.byLevel[:k] {
		var arr arrivals
		for _, pr := range x.g.Preds(dag.NodeID(v)) {
			u := int32(pr.To)
			arr.add(x.res[u], staticFin(u), pr.Weight)
		}
		primary := int(x.res[v])
		best := -1
		var bestStart, bestFin int64
		for q := 0; q < x.numProcs; q++ {
			if q == primary {
				continue
			}
			start := max(arr.on(q), lastFin[q])
			fin := start + x.execTime(v, q)
			if best < 0 || fin < bestFin {
				best, bestStart, bestFin = q, start, fin
			}
		}
		ci := int32(len(rt.copies))
		rt.copies = append(rt.copies, copyRec{task: v, proc: int32(best), floor: bestStart, next: -1})
		rt.copies[v].next = ci
		rt.setQueue(best, append(rt.editQueue(best), ci))
		lastFin[best] = bestFin
	}
}
