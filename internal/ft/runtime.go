package ft

import (
	"math"
	"sync"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/pq"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Event kinds, in tie-break order: completions before crashes before
// repairs at the same instant, so a unit finishing exactly when its
// processor dies survives, and work never starts on a processor in the
// instant before its crash is processed.
const (
	evComplete int8 = iota
	evCrash
	evRepair
)

// event is one entry on the simulation clock: a copy completion, a
// processor crash, or a processor repair.
type event struct {
	t     int64
	kind  int8
	id    int32 // copy index for completions, processor for crash/repair
	epoch int32 // completion validity stamp, see copyRec.epoch
}

func eventLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.id < b.id
}

// copyRec is one scheduled execution attempt of a unit: its primary
// placement, or a replica added by the replicate policy, or its
// re-placement after a repair pass. Copies are resource-specific
// because data-arrival lags depend on where the copy runs.
type copyRec struct {
	task     int32 // the unit this copy executes
	proc     int32 // its resource
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

// outGen lazily materializes the outage-window sequence of one directed
// channel: alternating exponential up and outage draws along the draw
// counter, generated strictly in time order so the realized windows are
// independent of the order transfers query them.
type outGen struct {
	wins [][2]int64
	k    int   // next draw index
	t    int64 // end of the last generated window
}

// runtime is the mutable state of one fault-injected execution: the
// event heap and clock, the per-processor fail-stop draws (every uptime
// and downtime is a counter-based draw along the processor's fault
// sequence), the per-resource queues, the per-channel outage
// generators, and the busy/down accounting. Runtimes are pooled; reset
// readies one for a run, reusing every backing array.
type runtime struct {
	x     *Exec
	opts  *Options
	pol   RecoveryPolicy
	trial uint64

	heap    *pq.Heap[event]
	now     int64
	horizon int64
	events  int64

	crashes   int
	pending   int // completion events in flight
	remaining int // tasks not yet finished
	makespan  int64
	aborted   bool

	// Per processor. busy and down are fresh each run: the Result of
	// the previous run holds them.
	repairAt   []int64 // scheduled repair while down, never otherwise
	faultK     []int   // fault draw counter
	busy, down []int64

	// Per unit.
	copies   []copyRec
	copiesOf [][]int32 // unit -> copy indices (usually exactly one)
	prim     []int32   // backs copiesOf's one-copy entries
	deps     []int32   // unfinished predecessors per unit
	done     []bool
	finTime  []int64 // realized finish of the first finisher
	finStart []int64 // realized start of the first finisher
	finProc  []int32
	saved    []int64 // checkpoint credit per unit

	// Per resource; channels are never down.
	queue     [][]int32 // copy indices in execution order
	qpos      []int
	runningOn []int32 // released copy occupying the resource, -1 if none
	freeAt    []int64 // last realized completion
	upAt      []int64 // last repair time
	downAt    []int64 // crash time while down, -1 while up

	gens []outGen // per channel

	// Recovery scratch. The repair schedule is acquired by a run's first
	// repair pass and goes back to the sched pool when the run ends.
	repairSched *sched.Schedule
	avail       []int64
	running     []bool  // unit has a copy in flight at the pass
	remPreds    []int32 // unplaced rest predecessors per rest unit
	ready       *pq.Heap[int32]
	lastFin     []int64    // replicate's static finish per processor
	pairs       [][2]int32 // backs copiesOf's replicated entries
}

// runtimePool recycles runtimes across trials and Execs, as sim pools
// its engine.
var runtimePool = sync.Pool{New: func() any {
	rt := &runtime{heap: pq.New[event](eventLess)}
	// The repair pass orders ready units by descending static b-level,
	// then ID; the closure reads the Exec of the current run.
	rt.ready = pq.New[int32](func(a, b int32) bool {
		bl := rt.x.blevel
		if bl[a] != bl[b] {
			return bl[a] > bl[b]
		}
		return a < b
	})
	return rt
}}

// reset readies the runtime for one run of x: every unit has its
// primary copy on its static resource, every resource its static
// queue, every processor its first crash drawn.
func (rt *runtime) reset(x *Exec, opts *Options, pol RecoveryPolicy, trial int) {
	n, r, procs := x.g.NumNodes(), len(x.queue), x.numProcs
	rt.x, rt.opts, rt.pol = x, opts, pol
	rt.trial = sim.TrialSeed(opts.Sim.Seed, trial)
	rt.heap.Reset()
	rt.now, rt.horizon, rt.events = 0, 0, 0
	rt.crashes, rt.pending, rt.remaining, rt.makespan, rt.aborted = 0, 0, x.tasks, 0, false

	rt.repairAt = resize(rt.repairAt, procs)
	rt.faultK = resize(rt.faultK, procs)
	rt.busy = make([]int64, procs)
	rt.down = make([]int64, procs)

	rt.copies = resize(rt.copies, n)
	rt.copiesOf = resize(rt.copiesOf, n)
	rt.prim = resize(rt.prim, n)
	rt.deps = resize(rt.deps, n)
	rt.done = resize(rt.done, n)
	rt.finTime = resize(rt.finTime, n)
	rt.finStart = resize(rt.finStart, n)
	rt.finProc = resize(rt.finProc, n)
	rt.saved = resize(rt.saved, n)
	for v := 0; v < n; v++ {
		rt.copies[v] = copyRec{task: int32(v), proc: x.res[v], floor: x.floor[v]}
		rt.prim[v] = int32(v)
		rt.copiesOf[v] = rt.prim[v : v+1 : v+1]
		rt.deps[v] = int32(x.g.InDegree(dag.NodeID(v)))
	}

	rt.queue = grow(rt.queue, r)
	rt.qpos = resize(rt.qpos, r)
	rt.runningOn = resize(rt.runningOn, r)
	rt.freeAt = resize(rt.freeAt, r)
	rt.upAt = resize(rt.upAt, r)
	rt.downAt = resize(rt.downAt, r)
	for p := range rt.queue {
		rt.queue[p] = append(rt.queue[p][:0], x.queue[p]...)
		rt.runningOn[p] = -1
		rt.downAt[p] = -1
	}
	rt.gens = grow(rt.gens, len(x.chans))
	for i := range rt.gens {
		rt.gens[i] = outGen{wins: rt.gens[i].wins[:0]}
	}
	for p := 0; p < procs; p++ {
		rt.repairAt[p] = never
		if opts.Faults.MTBF > 0 {
			rt.heap.Push(event{t: rt.nextFault(p, opts.Faults.MTBF), kind: evCrash, id: int32(p)})
		}
	}
}

// resize returns s with length n, zeroed, reusing its backing array
// when the capacity allows.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// grow returns s with length n, keeping its elements (and so their own
// backing arrays) for the caller to reset.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// run executes the compiled schedule once. The runtime releases a copy
// when its resource is up and free, the copies ahead of it in the
// resource's queue are finished, and its unfinished-predecessor count
// is zero; its start is the max of its ready time (floor plus realized
// data arrivals), the resource's last completion, and the processor's
// last repair, pushed past any outage window on a channel. With the
// zero fault model this reproduces sim.Plan.Run byte-identically: the
// same durations, lags, and max-folds, just grouped per resource
// instead of per arc.
func (x *Exec) run(opts *Options, pol RecoveryPolicy, trial int) Result {
	rt := runtimePool.Get().(*runtime)
	rt.reset(x, opts, pol, trial)
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
	res := rt.result()
	rt.repairSched.Release()
	rt.repairSched, rt.x, rt.opts, rt.pol = nil, nil, nil, nil // do not pin while pooled
	runtimePool.Put(rt)
	return res
}

// next pops the earliest event and advances the clock to it.
func (rt *runtime) next() event {
	ev := rt.heap.Pop()
	rt.events++
	rt.now = ev.t
	if ev.t > rt.horizon {
		rt.horizon = ev.t
	}
	return ev
}

// nextFault draws the next duration along processor p's fault
// sequence: uptimes and downtimes alternate.
func (rt *runtime) nextFault(p int, mean int64) int64 {
	d := sim.ExpDuration(mean, rt.trial, sim.ProcFaultEntity(p, rt.faultK[p]))
	rt.faultK[p]++
	return d
}

// execDur returns the realized duration of one execution attempt of
// unit v on resource p: the static estimate, scaled by the unit's
// perturbation multiplier and a processor's runtime speed factor
// exactly as sim's engine does, minus any checkpoint credit.
func (rt *runtime) execDur(v int32, p int) int64 {
	dur := rt.x.execTime(v, p)
	if rt.opts.Sim.Perturb.Dist != sim.DistNone {
		dur = sim.ScaleDur(dur, rt.opts.Sim.Perturb.Multiplier(rt.trial, rt.x.ent[v]))
	}
	if rt.opts.Sim.Speed != nil && p < rt.x.numProcs {
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

// tryRelease starts the next runnable copy on resource p, if any: the
// resource must be up and unoccupied, and the queue head (skipping
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
		start := max(c.ready, rt.freeAt[p], rt.upAt[p])
		if p >= rt.x.numProcs && rt.opts.Faults.LinkMTBF > 0 {
			start = rt.pushPastOutages(p-rt.x.numProcs, start)
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

// pushPastOutages returns the earliest time at or after r not covered
// by an outage window of channel ch, generating windows on demand.
// Windows are drawn per channel endpoint pair, so they do not depend
// on the plan's channel numbering.
func (rt *runtime) pushPastOutages(ch int, r int64) int64 {
	g := &rt.gens[ch]
	u, v := rt.x.chans[ch][0], rt.x.chans[ch][1]
	for {
		for g.t <= r {
			up := sim.ExpDuration(rt.opts.Faults.LinkMTBF, rt.trial, sim.LinkFaultEntity(u, v, g.k))
			g.k++
			out := sim.ExpDuration(rt.opts.Faults.MeanOutage, rt.trial, sim.LinkFaultEntity(u, v, g.k))
			g.k++
			ws := g.t + up
			g.t = ws + out
			g.wins = append(g.wins, [2]int64{ws, g.t})
		}
		moved := false
		for i := range g.wins {
			if r >= g.wins[i][0] && r < g.wins[i][1] {
				r = g.wins[i][1]
				moved = true
			}
		}
		if !moved {
			return r
		}
	}
}

// complete processes one copy completion: the first finisher of a unit
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
	if p < rt.x.numProcs {
		rt.busy[p] += t - c.start
	}
	if t > rt.freeAt[p] {
		rt.freeAt[p] = t
	}
	if !rt.done[c.task] {
		rt.done[c.task] = true
		rt.finTime[c.task] = t
		rt.finStart[c.task] = c.start
		rt.finProc[c.task] = c.proc
		if int(c.task) < rt.x.tasks {
			rt.remaining--
			rt.makespan = max(rt.makespan, t)
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
// and every unstarted copy queued on p are killed, downtime begins, a
// repair is scheduled when the model allows one, and the recovery
// policy reacts. Channels never crash: store-and-forward transfers run
// on the links, not the processors.
func (rt *runtime) crash(p int) {
	tc := rt.now
	rt.crashes++
	rt.downAt[p] = tc
	rt.repairAt[p] = never
	if rt.opts.Faults.MeanRepair > 0 {
		rt.repairAt[p] = tc + rt.nextFault(p, rt.opts.Faults.MeanRepair)
		rt.heap.Push(event{t: rt.repairAt[p], kind: evRepair, id: int32(p)})
	}
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

// repairProc returns processor p to service at the current clock:
// its downtime is accounted, its next crash is drawn, and queued work
// may start.
func (rt *runtime) repairProc(p int) {
	rt.down[p] += rt.now - rt.downAt[p]
	rt.downAt[p] = -1
	rt.repairAt[p] = never
	rt.heap.Push(event{t: rt.now + rt.nextFault(p, rt.opts.Faults.MTBF), kind: evCrash, id: int32(p)})
	rt.upAt[p] = rt.now
	rt.tryRelease(p)
}

// repairCanUnblock reports whether some currently-down processor with a
// scheduled repair has a runnable copy waiting: only then can the
// execution still make progress once no completion is in flight.
func (rt *runtime) repairCanUnblock() bool {
	for p := 0; p < rt.x.numProcs; p++ {
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

// result assembles the run's Result and folds it into the ft.*
// metrics. Trailing downtime is clamped to the horizon so Busy + Idle
// + Down partitions each processor's share of it exactly. A run
// finishes when no task remains and no repair pass aborted.
func (rt *runtime) result() Result {
	if obs.MetricsEnabled() {
		ftRuns.Inc()
		ftEvents.Add(rt.events)
		ftCrashes.Add(int64(rt.crashes))
		ftLost.Add(int64(rt.remaining))
	}
	res := Result{
		Static:  rt.x.static,
		Horizon: rt.horizon,
		Crashes: rt.crashes,
		Lost:    rt.remaining,
		Busy:    rt.busy,
		Down:    rt.down,
		Idle:    make([]int64, len(rt.busy)),
	}
	for p := range res.Idle {
		if rt.downAt[p] >= 0 && rt.horizon > rt.downAt[p] {
			res.Down[p] += rt.horizon - rt.downAt[p]
		}
		res.Idle[p] = rt.horizon - res.Busy[p] - res.Down[p]
	}
	if rt.remaining == 0 && !rt.aborted {
		res.Finished = true
		res.Makespan = rt.makespan
		res.Ratio = ratio(rt.makespan, rt.x.static)
	} else {
		res.Ratio = math.Inf(1)
	}
	return res
}
