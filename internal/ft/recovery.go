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

// repair list-schedules the units left at the crash, neither finished
// nor running, by descending static b-level with non-insertion
// best-EST placement on the runtime's own arrays. A processor is
// available from the crash time tc when up, from its scheduled repair
// when down, and never when dead; a running copy keeps its processor
// until its committed finish. Finished tasks need no pinning: every one
// ended by tc, which no processor in service is available before.
//
// A parent's data arrival is read off its copy. The repair policies
// keep one copy per unit, so copy u is unit u's winner once it has
// finished, in flight while it runs, and placed by the pass otherwise;
// a placed copy holds its planned interval in start and finish until
// it is released. The repaired queues are the placement order per
// processor, which is start order since every placement starts at or
// after its processor's last finish. The pass reuses the run's
// scratch, so its cost follows the work left, not the graph.
func (rt *runtime) repair() {
	tc := rt.now
	x := rt.x
	g := x.g
	n := g.NumNodes()
	x.levels()
	rt.avail = resize(rt.avail, x.numProcs)
	rt.lastFin = resize(rt.lastFin, x.numProcs)
	rt.running = resize(rt.running, n)
	rt.remPreds = resize(rt.remPreds, n)
	minAvail := never
	for p := range rt.avail {
		rt.avail[p] = rt.repairAt[p] // never while up, and for a dead processor
		if rt.downAt[p] < 0 {
			rt.avail[p] = tc
		}
		minAvail = min(minAvail, rt.avail[p])
	}
	// Unstarted released copies on surviving processors go back into the
	// pool: the repair pass may move them somewhere better. Copies in
	// flight stay, and keep their processors busy.
	for ci := range rt.copies {
		c := &rt.copies[ci]
		switch {
		case !c.released:
		case c.start > tc:
			c.epoch++
			c.released = false
			rt.runningOn[c.proc] = -1
			rt.pending--
		case !rt.done[c.task]:
			rt.running[c.task] = true
			rt.lastFin[c.proc] = max(rt.lastFin[c.proc], c.finish)
		}
	}
	// A ready heap keyed (b-level desc, id asc) over the units whose
	// predecessors are all placed: b-level order alone is not guaranteed
	// topological on zero-weight nodes, the ready filter is.
	rest := 0
	remPreds, ready := rt.remPreds, rt.ready
	ready.Reset()
	for v := int32(0); v < int32(n); v++ {
		if !rt.inRest(v) {
			continue
		}
		rest++
		remPreds[v] = 0
		for _, pr := range g.Preds(dag.NodeID(v)) {
			if rt.inRest(int32(pr.To)) {
				remPreds[v]++
			}
		}
		if remPreds[v] == 0 {
			ready.Push(v)
		}
	}
	if rest > 0 && minAvail == never {
		// No processor will ever be available again; the remaining
		// tasks cannot be placed and the run is lost.
		rt.aborted = true
		return
	}
	for p := 0; p < x.numProcs; p++ {
		rt.owned[p] = true
		rt.setQueue(p, rt.own[p][:0])
		rt.qpos[p] = 0
	}
	eager := rt.opts.Sim.Policy == DispatchEager
	for ready.Len() > 0 {
		v := ready.Pop()
		preds := g.Preds(dag.NodeID(v))
		var arr arrivals
		for _, pr := range preds {
			w := &rt.copies[pr.To]
			arr.add(w.proc, w.finish, pr.Weight)
		}
		p, est := rt.bestProc(&arr, minAvail)
		c := &rt.copies[v]
		c.proc = int32(p)
		c.start = est
		c.finish = later(est, x.execTime(v, p))
		rt.lastFin[p] = c.finish
		rt.setQueue(p, append(rt.queue[p], v))
		rest--
		// The release floor is the repaired start; the ready time folds
		// in the arrivals already realized. A re-placement decided at tc
		// cannot start before tc, even under eager dispatch.
		c.floor = est
		if eager {
			c.floor = 0
		}
		c.ready = max(c.floor, tc)
		c.dead = false
		deps := int32(0)
		for _, pr := range preds {
			u := int32(pr.To)
			if !rt.done[u] {
				deps++
				continue
			}
			w := &rt.copies[u]
			a := w.finish
			if w.proc != c.proc {
				a = later(a, rt.commLag(u, dag.Arc{To: pr.To, Weight: pr.Weight}))
			}
			c.ready = max(c.ready, a)
		}
		rt.deps[v] = deps
		for _, a := range g.Succs(dag.NodeID(v)) {
			w := int32(a.To)
			if !rt.inRest(w) {
				continue
			}
			if remPreds[w]--; remPreds[w] == 0 {
				ready.Push(w)
			}
		}
	}
	if rest != 0 {
		panic("ft: repair pass left tasks unplaced")
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

// inRest reports whether task v is left for the repair pass to place:
// neither finished nor in flight.
func (rt *runtime) inRest(v int32) bool { return !rt.done[v] && !rt.running[v] }

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
