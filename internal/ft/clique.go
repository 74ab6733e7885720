package ft

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/pq"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Exec is a compiled schedule ready for fault-injected execution. Like
// sim.Plan it is immutable after compilation and safe for concurrent
// Run calls; unlike sim.Plan it keeps the task graph and placement (not
// just a job DAG), because recovery policies re-place work at runtime.
type Exec struct {
	clique *cliqueExec
	apn    *sim.Plan

	numProcs int
	static   int64
}

// Static returns the planned (unperturbed) makespan of the compiled
// schedule.
func (x *Exec) Static() int64 { return x.static }

// NumProcs returns the processor count of the compiled machine.
func (x *Exec) NumProcs() int { return x.numProcs }

// Run executes the schedule once under the given options and trial
// number. Runs are deterministic in (Options, trial) and independent of
// each other.
func (x *Exec) Run(opts Options, trial int) (Result, error) {
	pol, err := x.check(&opts)
	if err != nil {
		return Result{}, err
	}
	return x.run(&opts, pol, trial), nil
}

// check validates opts against x and resolves the recovery policy; APN
// executions support only None.
func (x *Exec) check(opts *Options) (RecoveryPolicy, error) {
	if err := opts.validate(x.numProcs); err != nil {
		return nil, err
	}
	pol := opts.recovery()
	if x.apn != nil && pol.Name() != "none" {
		return nil, fmt.Errorf("ft: recovery policy %q is not supported on APN schedules", pol.Name())
	}
	return pol, nil
}

// run executes one validated trial on the engine x was compiled for.
func (x *Exec) run(opts *Options, pol RecoveryPolicy, trial int) Result {
	if x.apn != nil {
		return runAPN(x.apn, opts, trial)
	}
	return x.clique.run(opts, pol, trial)
}

// cliqueExec is the immutable compilation of a clique-model schedule:
// the graph, the static placement, the per-processor execution orders,
// and the static b-levels that prioritize repair and replication.
type cliqueExec struct {
	g        *dag.Graph
	numProcs int
	static   int64
	speeds   []float64 // schedule-level speed vector, nil when homogeneous
	proc     []int32   // static processor per task
	floor    []int64   // static start per task (the timetable floor)
	order    [][]int32 // static task order per processor
	blevel   []int64   // static b-levels (repair priority)
}

// Compile translates a complete clique-model schedule (BNP and UNC
// classes) into a fault-capable Exec.
func Compile(s *sched.Schedule) (*Exec, error) {
	if !s.Complete() {
		return nil, fmt.Errorf("ft: cannot compile a partial schedule (%d of %d tasks placed)",
			s.Placed(), s.Graph().NumNodes())
	}
	g := s.Graph()
	n := g.NumNodes()
	c := &cliqueExec{
		g:        g,
		numProcs: s.NumProcs(),
		static:   s.Makespan(),
		proc:     make([]int32, n),
		floor:    make([]int64, n),
		order:    make([][]int32, s.NumProcs()),
		blevel:   dag.BLevels(g),
	}
	if sp := s.Speeds(); sp != nil {
		c.speeds = append([]float64(nil), sp...)
	}
	for v := 0; v < n; v++ {
		node := dag.NodeID(v)
		c.proc[v] = int32(s.ProcOf(node))
		c.floor[v] = s.StartOf(node)
	}
	for p := 0; p < s.NumProcs(); p++ {
		slots := s.Slots(p)
		if len(slots) == 0 {
			continue
		}
		c.order[p] = make([]int32, len(slots))
		for i, sl := range slots {
			c.order[p][i] = int32(sl.Node)
		}
	}
	return &Exec{clique: c, numProcs: c.numProcs, static: c.static}, nil
}

// execTime returns the static execution-time estimate of task v on
// processor p: the node weight, or ceil(weight/speed[p]) on a
// heterogeneous machine — identical to sched.Schedule.ExecTime, so for
// the static placement it equals the committed slot duration exactly.
func (c *cliqueExec) execTime(v int32, p int) int64 {
	w := c.g.Weight(dag.NodeID(v))
	if c.speeds == nil {
		return w
	}
	return int64(math.Ceil(float64(w) / c.speeds[p]))
}

// copyRec is one scheduled execution attempt of a task: its primary
// placement, or a replica added by the replicate policy, or its
// re-placement after a repair pass. Copies are processor-specific
// because data-arrival lags depend on where the copy runs.
type copyRec struct {
	task     int32
	proc     int32
	floor    int64 // release floor (static or repaired start; 0 under eager)
	ready    int64 // floor folded with realized data arrivals
	start    int64 // realized start once released
	finish   int64
	released bool
	dead     bool
	// epoch invalidates in-flight completion events: cancelling or
	// killing a released copy bumps it, so the stale heap entry is
	// skipped when popped.
	epoch int32
}

// runtime is the mutable state of one fault-injected clique execution.
type runtime struct {
	procClock
	x   *cliqueExec
	pol RecoveryPolicy

	copies   []copyRec
	copiesOf [][]int32 // task -> copy indices (usually exactly one)
	deps     []int32   // unfinished predecessors per task
	done     []bool
	finTime  []int64 // realized finish of the first finisher
	finStart []int64 // realized start of the first finisher
	finProc  []int32
	saved    []int64 // checkpoint credit per task

	queue     [][]int32 // per processor: copy indices in execution order
	qpos      []int
	runningOn []int32 // released copy occupying the processor, -1 if none
	freeAt    []int64 // last realized completion per processor
	upAt      []int64 // last repair time per processor

	// Repair-pass scratch, set up by the run's first repair pass and
	// reused by every later one; the schedule goes back to the sched
	// pool when the run ends. It lives here, not on the shared Exec,
	// because concurrent runs of one Exec each need their own.
	repairSched *sched.Schedule
	avail       []int64
	running     []bool  // task has a copy in flight at the pass
	remPreds    []int32 // unplaced rest predecessors per rest task
	ready       *pq.Heap[int32]

	aborted bool
}

// run executes the compiled schedule once. The engine is a replay of
// sim's event loop in queue form: a task copy is released when its
// processor is up and free, the copies ahead of it in the processor
// queue are finished, and its unfinished-predecessor count is zero; its
// start is the max of its ready time (floor plus realized data
// arrivals), the processor's last completion, and the processor's last
// repair. With the zero fault model this reproduces sim.Plan.Run
// byte-identically: the same durations, lags, and max-folds, just
// grouped per processor instead of per arc.
func (c *cliqueExec) run(opts *Options, pol RecoveryPolicy, trial int) Result {
	n := c.g.NumNodes()
	rt := &runtime{
		x:   c,
		pol: pol,

		copies:   make([]copyRec, n),
		copiesOf: make([][]int32, n),
		deps:     make([]int32, n),
		done:     make([]bool, n),
		finTime:  make([]int64, n),
		finStart: make([]int64, n),
		finProc:  make([]int32, n),
		saved:    make([]int64, n),

		queue:     make([][]int32, c.numProcs),
		qpos:      make([]int, c.numProcs),
		runningOn: make([]int32, c.numProcs),
		freeAt:    make([]int64, c.numProcs),
		upAt:      make([]int64, c.numProcs),
	}
	rt.start(opts, trial, c.static, c.numProcs, n)
	prim := make([]int32, n)
	for v := 0; v < n; v++ {
		rt.copies[v] = copyRec{task: int32(v), proc: c.proc[v], floor: c.floor[v]}
		prim[v] = int32(v)
		rt.copiesOf[v] = prim[v : v+1 : v+1]
		rt.deps[v] = int32(c.g.InDegree(dag.NodeID(v)))
	}
	for p := range rt.queue {
		rt.queue[p] = append([]int32(nil), c.order[p]...)
		rt.runningOn[p] = -1
	}
	pol.prepare(rt)
	if opts.Sim.Policy == sim.PolicyEager {
		for i := range rt.copies {
			rt.copies[i].floor = 0
		}
	}
	for i := range rt.copies {
		rt.copies[i].ready = rt.copies[i].floor
	}
	for p := range rt.queue {
		rt.tryRelease(p)
	}
	for !rt.aborted && rt.remaining > 0 {
		if rt.pending == 0 && !rt.repairCanUnblock() {
			break // lost tasks block all remaining work forever
		}
		if rt.heap.Len() == 0 {
			break
		}
		switch ev := rt.next(); ev.kind {
		case evComplete:
			rt.complete(ev)
		case evCrash:
			rt.crash(int(ev.id))
		case evRepair:
			rt.repairProc(int(ev.id))
		}
	}
	rt.repairSched.Release()
	return rt.result(rt.aborted)
}

// execDur returns the realized duration of one execution attempt of
// task v on processor p: the static estimate, scaled by the task's
// perturbation multiplier and the runtime speed factor exactly as sim's
// engine does, minus any checkpoint credit.
func (rt *runtime) execDur(v int32, p int) int64 {
	dur := rt.x.execTime(v, p)
	if rt.opts.Sim.Perturb.Dist != sim.DistNone {
		dur = sim.ScaleDur(dur, rt.opts.Sim.Perturb.Multiplier(rt.trial, sim.TaskEntity(dag.NodeID(v))))
	}
	if rt.opts.Sim.Speed != nil {
		dur = sim.ScaleDur(dur, rt.opts.Sim.Speed[p])
	}
	if rt.saved[v] > 0 {
		dur -= rt.saved[v]
		if dur < 1 {
			dur = 1
		}
	}
	return dur
}

// commLag returns the realized communication lag of edge a out of u,
// scaled by the edge's multiplier when the arc carries weight — the
// same entity and scaling as sim's engine, so co-located copies read
// data for free and remote copies pay the perturbed cost.
func (rt *runtime) commLag(u dag.NodeID, a dag.Arc) int64 {
	if a.Weight == 0 {
		return 0
	}
	lag := a.Weight
	if rt.opts.Sim.Perturb.Dist != sim.DistNone {
		lag = sim.ScaleDur(lag, rt.opts.Sim.Perturb.Multiplier(rt.trial, sim.CommEntity(u, a.To)))
	}
	return lag
}

// tryRelease starts the next runnable copy on processor p, if any: the
// processor must be up and unoccupied, and the queue head (skipping
// dead and already-finished entries) must have no unfinished
// predecessors.
func (rt *runtime) tryRelease(p int) {
	if rt.runningOn[p] >= 0 || rt.downAt[p] >= 0 {
		return
	}
	for rt.qpos[p] < len(rt.queue[p]) {
		ci := rt.queue[p][rt.qpos[p]]
		c := &rt.copies[ci]
		if c.dead || rt.done[c.task] {
			rt.qpos[p]++
			continue
		}
		if rt.deps[c.task] > 0 {
			return
		}
		start := c.ready
		if rt.freeAt[p] > start {
			start = rt.freeAt[p]
		}
		if rt.upAt[p] > start {
			start = rt.upAt[p]
		}
		c.released = true
		c.start = start
		c.finish = start + rt.execDur(c.task, p)
		rt.runningOn[p] = ci
		rt.heap.Push(event{t: c.finish, kind: evComplete, id: ci, epoch: c.epoch})
		rt.pending++
		return
	}
}

// complete processes one copy completion: the first finisher of a task
// records the result, folds realized data arrivals into every live copy
// of each child, and cancels sibling copies that have not started;
// later finishers (a replica racing a survivor) just free their
// processor.
func (rt *runtime) complete(ev event) {
	c := &rt.copies[ev.id]
	if c.dead || c.epoch != ev.epoch {
		return // cancelled while in flight; pending was already adjusted
	}
	rt.pending--
	t := ev.t
	p := int(c.proc)
	c.released = false
	rt.runningOn[p] = -1
	rt.busy[p] += t - c.start
	if t > rt.freeAt[p] {
		rt.freeAt[p] = t
	}
	if !rt.done[c.task] {
		rt.done[c.task] = true
		rt.finTime[c.task] = t
		rt.finStart[c.task] = c.start
		rt.finProc[c.task] = c.proc
		rt.remaining--
		if t > rt.makespan {
			rt.makespan = t
		}
		for _, si := range rt.copiesOf[c.task] {
			if si == ev.id {
				continue
			}
			s := &rt.copies[si]
			if s.dead {
				continue
			}
			if s.released && s.start <= t {
				continue // already running: let it finish and free its processor
			}
			if s.released {
				s.epoch++
				s.released = false
				rt.runningOn[s.proc] = -1
				rt.pending--
			}
			s.dead = true
			rt.tryRelease(int(s.proc))
		}
		node := dag.NodeID(c.task)
		for _, a := range rt.x.g.Succs(node) {
			child := int32(a.To)
			if !rt.done[child] {
				lag := rt.commLag(node, a)
				for _, cc := range rt.copiesOf[child] {
					k := &rt.copies[cc]
					if k.dead {
						continue
					}
					arr := t
					if k.proc != c.proc {
						arr += lag
					}
					if arr > k.ready {
						k.ready = arr
					}
				}
			}
			if rt.deps[child]--; rt.deps[child] == 0 && !rt.done[child] {
				for _, cc := range rt.copiesOf[child] {
					if !rt.copies[cc].dead {
						rt.tryRelease(int(rt.copies[cc].proc))
					}
				}
			}
		}
	}
	rt.tryRelease(p)
}

// crash processes the fail-stop crash of processor p: the running copy
// and every unstarted copy queued on p are killed, downtime begins, an
// optional repair is scheduled, and the recovery policy reacts.
func (rt *runtime) crash(p int) {
	rt.procClock.crash(p)
	tc := rt.now
	// Kill the copy occupying the processor first: after a repair pass,
	// running copies are no longer in the rebuilt queues, so the queue
	// scan below would miss them.
	if ci := rt.runningOn[p]; ci >= 0 {
		c := &rt.copies[ci]
		if c.start <= tc {
			rt.busy[p] += tc - c.start
			if iv := rt.pol.interval(); iv > 0 {
				// Progress up to the last completed checkpoint boundary
				// survives the crash; elapsed < duration (the completion
				// would have fired first), so the credit never covers the
				// whole task.
				rt.saved[c.task] += (tc - c.start) / iv * iv
			}
		}
		c.epoch++
		c.released = false
		rt.pending--
		c.dead = true
		rt.runningOn[p] = -1
	}
	// Unstarted work queued on the processor dies with it; a released
	// copy is always the runningOn occupant, so everything left here is
	// unreleased.
	for i := rt.qpos[p]; i < len(rt.queue[p]); i++ {
		c := &rt.copies[rt.queue[p][i]]
		if c.dead || rt.done[c.task] {
			continue
		}
		c.dead = true
	}
	rt.pol.onCrash(rt, p)
}

// repairProc returns processor p to service: downtime is accounted, the
// next crash is drawn, and queued work may start.
func (rt *runtime) repairProc(p int) {
	rt.repair(p)
	rt.upAt[p] = rt.now
	rt.tryRelease(p)
}

// repairCanUnblock reports whether some currently-down processor with a
// scheduled repair has a runnable copy waiting: only then can the
// execution still make progress once no completion is in flight.
func (rt *runtime) repairCanUnblock() bool {
	for p := range rt.queue {
		if rt.downAt[p] < 0 || rt.repairAt[p] == never {
			continue
		}
		for i := rt.qpos[p]; i < len(rt.queue[p]); i++ {
			c := &rt.copies[rt.queue[p][i]]
			if c.dead || rt.done[c.task] {
				continue
			}
			if rt.deps[c.task] == 0 {
				return true
			}
			break // blocked behind a copy whose predecessors cannot finish
		}
	}
	return false
}

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
			if err := s.PlaceFixed(dag.NodeID(v), int(rt.finProc[v]), rt.finStart[v], rt.finTime[v]); err != nil {
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
	eager := rt.opts.Sim.Policy == sim.PolicyEager
	for p := 0; p < rt.x.numProcs; p++ {
		rt.queue[p] = rt.queue[p][:0]
		rt.qpos[p] = 0
		for _, sl := range s.Slots(p) {
			v := int32(sl.Node)
			if rt.done[v] || rt.running[v] {
				continue
			}
			rt.queue[p] = append(rt.queue[p], v)
		}
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
			arr := rt.finTime[u]
			if rt.finProc[u] != c.proc {
				arr += rt.commLag(dag.NodeID(u), dag.Arc{To: pr.To, Weight: pr.Weight})
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
// first pass acquires the schedule and sizes the mask, flags, counts
// and heap; later passes Reset and clear them, keeping their storage.
func (rt *runtime) repairScratch() *sched.Schedule {
	x := rt.x
	if rt.repairSched == nil {
		n := x.g.NumNodes()
		rt.repairSched = sched.Acquire(x.g, x.numProcs)
		rt.avail = make([]int64, x.numProcs)
		rt.running = make([]bool, n)
		rt.remPreds = make([]int32, n)
		rt.ready = pq.New[int32](func(a, b int32) bool {
			if x.blevel[a] != x.blevel[b] {
				return x.blevel[a] > x.blevel[b]
			}
			return a < b
		})
	} else {
		// The ready heap is empty: a pass drains it or aborts the run.
		rt.repairSched.Reset(x.g, x.numProcs)
		clear(rt.running)
	}
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
	order := make([]int32, n)
	for v := range order {
		order[v] = int32(v)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if x.blevel[a] != x.blevel[b] {
			return x.blevel[a] > x.blevel[b]
		}
		return a < b
	})
	staticFin := func(v int32) int64 { return x.floor[v] + x.execTime(v, int(x.proc[v])) }
	lastFin := make([]int64, x.numProcs)
	for v := int32(0); v < int32(n); v++ {
		if f := staticFin(v); f > lastFin[x.proc[v]] {
			lastFin[x.proc[v]] = f
		}
	}
	for _, v := range order[:k] {
		primary := int(x.proc[v])
		best := -1
		var bestStart, bestFin int64
		for q := 0; q < x.numProcs; q++ {
			if q == primary {
				continue
			}
			var drt int64
			for _, pr := range x.g.Preds(dag.NodeID(v)) {
				f := staticFin(int32(pr.To))
				if int(x.proc[pr.To]) != q {
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
		rt.copies = append(rt.copies, copyRec{task: v, proc: int32(best), floor: bestStart})
		rt.copiesOf[v] = []int32{v, ci}
		rt.queue[best] = append(rt.queue[best], ci)
		lastFin[best] = bestFin
	}
}
