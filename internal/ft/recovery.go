package ft

import (
	"repro/internal/dag"
	"repro/internal/sched"
)

// resubmit is the repair pass of the resubmit and checkpoint policies:
// it rebuilds a schedule for the unfinished suffix on the processors
// still in service and swaps the runtime's queues over to it. Running
// tasks are pinned at their committed finish times, and of the
// finished tasks only the frontier (those with an unfinished child) is
// pinned at its realized interval: every finished predecessor of an
// unfinished task is on the frontier, and any other finished task ends
// by the crash time tc, which no processor in service is available
// before, so it cannot move an EST. Everything else is list-scheduled
// by descending static b-level with non-insertion best-EST queries
// under the availability mask (down processors become available at
// their scheduled repair; dead ones never). The pass reuses the run's
// repair scratch, so its cost follows the work left, not the graph.
func (rt *runtime) resubmit() {
	tc := rt.now
	g := rt.x.g
	n := g.NumNodes()
	// Unstarted released copies on surviving processors go back into the
	// pool: the repair pass may move them somewhere better.
	for ci := range rt.copies {
		c := &rt.copies[ci]
		if c.released && c.start > tc {
			c.epoch++
			c.released = false
			rt.runningOn[c.proc] = -1
			rt.pending--
		}
	}
	s := rt.repairScratch()
	for p := range rt.avail {
		switch {
		case rt.downAt[p] < 0:
			rt.avail[p] = tc
		case rt.repairAt[p] != never:
			rt.avail[p] = rt.repairAt[p]
		default:
			rt.avail[p] = sched.Never
		}
	}
	if err := s.SetAvailableFrom(rt.avail); err != nil {
		panic(err)
	}
	for v := 0; v < n; v++ {
		if rt.done[v] && rt.onFrontier(dag.NodeID(v)) {
			w := &rt.copies[rt.won[v]]
			if err := s.PlaceFixed(dag.NodeID(v), int(w.proc), w.start, w.finish); err != nil {
				panic(err)
			}
		}
	}
	for ci := range rt.copies {
		c := &rt.copies[ci]
		if c.released && !rt.done[c.task] {
			rt.running[c.task] = true
			if err := s.PlaceFixed(dag.NodeID(c.task), int(c.proc), c.start, c.finish); err != nil {
				panic(err)
			}
		}
	}
	// List-schedule the rest: a ready heap keyed (b-level desc, id asc)
	// over the tasks whose predecessors are all placed — b-level order
	// alone is not guaranteed topological on zero-weight nodes, the
	// ready filter is.
	rest := 0
	remPreds, ready := rt.remPreds, rt.ready
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
	for ready.Len() > 0 {
		v := ready.Pop()
		p, est, ok := s.BestEST(dag.NodeID(v), false)
		if !ok || p < 0 {
			// No processor will ever be available again; the remaining
			// tasks cannot be placed and the run is lost.
			rt.aborted = true
			return
		}
		s.MustPlace(dag.NodeID(v), p, est)
		rest--
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
	// Swap the runtime over to the repaired schedule: fresh queues from
	// the repaired slot order, floors from the repaired starts, ready
	// times refolded from the arrivals already realized.
	eager := rt.opts.Sim.Policy == DispatchEager
	for p := 0; p < rt.x.numProcs; p++ {
		q := rt.editQueue(p)[:0]
		rt.qpos[p] = 0
		for _, sl := range s.Slots(p) {
			v := int32(sl.Node)
			if rt.done[v] || rt.running[v] {
				continue
			}
			q = append(q, v)
		}
		rt.setQueue(p, q)
	}
	for v := int32(0); v < int32(n); v++ {
		if !rt.inRest(v) {
			continue
		}
		c := &rt.copies[v]
		c.proc = int32(s.ProcOf(dag.NodeID(v)))
		c.floor = s.StartOf(dag.NodeID(v))
		if eager {
			c.floor = 0
		}
		// A re-placement decided at tc cannot start before tc, even under
		// eager dispatch.
		c.ready = max(c.floor, tc)
		c.dead = false
		c.released = false
		deps := int32(0)
		for _, pr := range g.Preds(dag.NodeID(v)) {
			u := int32(pr.To)
			if !rt.done[u] {
				deps++
				continue
			}
			w := &rt.copies[rt.won[u]]
			arr := w.finish
			if w.proc != c.proc {
				arr = later(arr, rt.commLag(u, dag.Arc{To: pr.To, Weight: pr.Weight}))
			}
			if arr > c.ready {
				c.ready = arr
			}
		}
		rt.deps[v] = deps
	}
	for p := 0; p < rt.x.numProcs; p++ {
		rt.tryRelease(p)
	}
}

// repairScratch readies the scratch a repair pass works in. The run's
// first pass acquires the schedule; later passes Reset it. The mask,
// flags and counts keep their storage across passes and runs.
func (rt *runtime) repairScratch() *sched.Schedule {
	x := rt.x
	x.levels()
	if rt.repairSched == nil {
		rt.repairSched = sched.Acquire(x.g, x.numProcs)
	} else {
		rt.repairSched.Reset(x.g, x.numProcs)
	}
	rt.avail = resize(rt.avail, x.numProcs)
	rt.running = resize(rt.running, x.g.NumNodes())
	rt.remPreds = resize(rt.remPreds, x.g.NumNodes())
	rt.ready.Reset() // an aborted pass leaves units behind
	if x.speeds != nil {
		if err := rt.repairSched.SetSpeeds(x.speeds); err != nil {
			panic(err)
		}
	}
	return rt.repairSched
}

// onFrontier reports whether finished task v has a child that has not
// finished: only such tasks constrain the work a repair pass places.
func (rt *runtime) onFrontier(v dag.NodeID) bool {
	for _, a := range rt.x.g.Succs(v) {
		if !rt.done[a.To] {
			return true
		}
	}
	return false
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
		primary := int(x.res[v])
		best := -1
		var bestStart, bestFin int64
		for q := 0; q < x.numProcs; q++ {
			if q == primary {
				continue
			}
			var drt int64
			for _, pr := range x.g.Preds(dag.NodeID(v)) {
				f := staticFin(int32(pr.To))
				if int(x.res[pr.To]) != q {
					f += pr.Weight
				}
				if f > drt {
					drt = f
				}
			}
			start := drt
			if lastFin[q] > start {
				start = lastFin[q]
			}
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
