package ft

import (
	"math"
	"sync"

	"repro/internal/dag"
	"repro/internal/obs"
)

// Event kinds, in tie-break order: completions before crashes before
// repairs at the same instant, so a unit finishing exactly when its
// processor dies survives, and work never starts on a processor in the
// instant before its crash is processed. A kind occupies the top two
// bits of an event's key, above the copy index or processor, so one
// comparison orders by kind and then by index.
const (
	evComplete uint32 = iota << 30
	evCrash
	evRepair
	evIndex = 1<<30 - 1
)

// event is one entry on the simulation clock: a copy completion, a
// processor crash, or a processor repair.
type event struct {
	t     int64
	key   uint32 // kind | copy index for completions, processor for crash/repair
	epoch int32  // completion validity stamp, see copyRec.epoch
}

func (e event) kind() uint32 { return e.key &^ evIndex }
func (e event) id() int32    { return int32(e.key & evIndex) }

func eventLess(a, b event) bool {
	return a.t < b.t || a.t == b.t && a.key < b.key
}

// eventHeap is a binary min-heap of events in eventLess order, kept
// apart from internal/pq so the comparisons inline into the hot loop.
// Two live events never tie, so the pop order is the order itself.
type eventHeap []event

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !eventLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top, n := s[0], len(s)-1
	s[0], s = s[n], s[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && eventLess(s[r], s[m]) {
			m = r
		}
		if !eventLess(s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
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
	start    int64 // realized start once released; planned by a repair pass before
	finish   int64 // likewise
	released bool
	dead     bool
	// epoch invalidates in-flight completion events: cancelling or
	// killing a released copy bumps it, so the stale heap entry is
	// skipped when popped.
	epoch int32
	next  int32 // the unit's next copy (its replica), -1 at the end
}

// outGen lazily draws the outage-window sequence of one directed
// channel: alternating exponential up and outage draws along the draw
// counter, in time order, so the realized windows do not depend on when
// transfers query them. A channel starts its transfers in queue order,
// each after the previous one finished, so queries never go back in
// time and only the latest window is kept.
type outGen struct {
	ws, we int64 // the latest window [ws, we)
	k      int   // next draw index
}

// runtime is the mutable state of one execution: the
// event heap and clock, the per-processor fail-stop draws (every uptime
// and downtime is a counter-based draw along the processor's fault
// sequence), the per-resource queues, the per-channel outage
// generators, and the busy/down accounting. Runtimes are pooled; reset
// readies one for a run, reusing every backing array.
type runtime struct {
	x     *Exec
	opts  Options // a copy, so a caller's options never escape
	pol   RecoveryPolicy
	trial uint64

	heap    eventHeap
	now     int64
	horizon int64
	events  int64
	stalls  int64 // releases later than the unit's static start

	crashes   int
	pending   int // completion events in flight
	remaining int // tasks not yet finished
	makespan  int64
	aborted   bool

	// Per processor.
	repairAt   []int64 // scheduled repair while down, never otherwise
	faultK     []int   // fault draw counter
	busy, down []int64

	// Per unit.
	copies []copyRec // copy v is unit v's primary, the head of its copy list
	deps   []int32   // unfinished predecessors per unit
	done   []bool
	won    []int32 // the copy that finished each unit first
	saved  []int64 // checkpoint credit per unit

	// Per resource; channels are never down. A run reads the Exec's
	// static queues in place until a recovery policy edits one, which
	// first moves it into the run's own buffer (editQueue).
	queue     [][]int32 // copy indices in execution order
	own       [][]int32 // the run's queue buffers, kept across runs
	owned     []bool    // queue[p] is own[p]
	qpos      []int
	runningOn []int32 // released copy occupying the resource, -1 if none
	freeAt    []int64 // last realized completion
	upAt      []int64 // last repair time
	downAt    []int64 // crash time while down, -1 while up

	gens []outGen // per channel

	// Recovery scratch, kept across passes and runs. The per-unit
	// arrays are sized at a run's first repair pass (pass == 0), so runs
	// that never repair pay nothing for them.
	avail    []int64  // per processor: repair-pass availability, never when dead
	lastFin  []int64  // per processor: last planned finish (repair, replicate)
	minAvail int64    // the live pass's earliest availability
	passAt   int64    // the live pass's crash time
	pass     uint32   // the live pass's stamp, see markUnplaced
	unplaced int      // rest units the live pass has yet to place; 0 when none is live
	mark     []uint32 // per unit: its mark in the live pass
	planFin  []int64  // per unit: finish as planned at the pass, if placed or in flight
	remPreds []int32  // per rest unit: its predecessors not yet placed
	unfin    []int32  // the units unfinished at the last pass
	ready    rankHeap
}

// rankHeap is the repair pass's ready heap: a binary min-heap of units'
// positions in Exec.byLevel, so the lowest rank is the unit of highest
// static b-level, then lowest ID. It is kept apart from internal/pq so
// the comparisons inline.
type rankHeap []int32

func (h *rankHeap) push(r int32) {
	s := append(*h, r)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *rankHeap) pop() int32 {
	s := *h
	top, n := s[0], len(s)-1
	s[0], s = s[n], s[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && s[r] < s[m] {
			m = r
		}
		if s[i] <= s[m] {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// runtimePool recycles runtimes across trials and Execs, so a warm
// trial allocates nothing for its own state.
var runtimePool = sync.Pool{New: func() any { return &runtime{} }}

// reset readies the runtime for one run of x: every unit has its
// primary copy on its static resource, every resource its static
// queue, every processor its first crash drawn.
func (rt *runtime) reset(x *Exec, opts *Options, pol RecoveryPolicy, trial int) {
	n, r, procs := len(x.res), len(x.queue), x.numProcs
	rt.x, rt.opts, rt.pol = x, *opts, pol
	rt.trial = trialSeed(opts.Sim.Seed, trial)
	rt.heap = rt.heap[:0]
	rt.now, rt.horizon, rt.events, rt.stalls = 0, 0, 0, 0
	rt.crashes, rt.pending, rt.remaining, rt.makespan, rt.aborted = 0, 0, x.tasks, 0, false
	rt.pass, rt.unplaced = 0, 0

	rt.repairAt = resize(rt.repairAt, procs)
	rt.faultK = resize(rt.faultK, procs)
	rt.busy = resize(rt.busy, procs)
	rt.down = resize(rt.down, procs)

	rt.copies = resize(rt.copies, n)
	rt.deps = resize(rt.deps, n)
	rt.done = resize(rt.done, n)
	rt.won = resize(rt.won, n)
	rt.saved = resize(rt.saved, n)
	for v := 0; v < n; v++ {
		rt.copies[v] = copyRec{task: int32(v), proc: x.res[v], floor: x.floor[v], next: -1}
		rt.deps[v] = x.inDegree(int32(v))
	}

	rt.queue = resize(rt.queue, r)
	rt.own = grow(rt.own, r)
	rt.owned = resize(rt.owned, r)
	rt.qpos = resize(rt.qpos, r)
	rt.runningOn = resize(rt.runningOn, r)
	rt.freeAt = resize(rt.freeAt, r)
	rt.upAt = resize(rt.upAt, r)
	rt.downAt = resize(rt.downAt, r)
	for p := range rt.queue {
		rt.queue[p] = x.queue[p]
		rt.runningOn[p] = -1
		rt.downAt[p] = -1
	}
	rt.gens = resize(rt.gens, len(x.chans))
	for p := 0; p < procs; p++ {
		rt.repairAt[p] = never
		if opts.Faults.MTBF > 0 {
			rt.heap.push(event{t: rt.nextFault(p, opts.Faults.MTBF), key: evCrash | uint32(p)})
		}
	}
}

// editQueue returns resource p's queue as the run's own copy, for a
// recovery policy to change and store back with setQueue.
func (rt *runtime) editQueue(p int) []int32 {
	if !rt.owned[p] {
		rt.own[p] = append(rt.own[p][:0], rt.queue[p]...)
		rt.owned[p] = true
	}
	return rt.own[p]
}

// setQueue installs q, built on editQueue(p), as resource p's queue.
func (rt *runtime) setQueue(p int, q []int32) { rt.own[p], rt.queue[p] = q, q }

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

// execute takes a runtime from the pool and runs the compiled schedule
// on it to the end. The runtime releases a copy when its resource is up
// and free, the copies ahead of it in the resource's queue are
// finished, and its unfinished-predecessor count is zero; its start is
// the max of its ready time (floor plus realized data arrivals), the
// resource's last completion, and the processor's last repair, pushed
// past any outage window on a channel. The caller reads the outcome
// off the runtime and then releases it.
func (x *Exec) execute(opts *Options, pol RecoveryPolicy, trial int) *runtime {
	rt := runtimePool.Get().(*runtime)
	rt.reset(x, opts, pol, trial)
	pol.prepare(rt)
	if opts.Sim.Policy == DispatchEager {
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
		if len(rt.heap) == 0 {
			break
		}
		switch ev := rt.next(); ev.kind() {
		case evComplete:
			rt.complete(ev)
		case evCrash:
			rt.crash(int(ev.id()))
		case evRepair:
			rt.repairProc(int(ev.id()))
		}
	}
	return rt
}

// release returns the runtime to the pool, dropping every reference to
// the run's inputs so the pool pins none of them.
func (rt *runtime) release() {
	rt.x, rt.pol, rt.opts = nil, nil, Options{}
	runtimePool.Put(rt)
}

// next pops the earliest event and advances the clock to it.
func (rt *runtime) next() event {
	ev := rt.heap.pop()
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
	d := expDuration(mean, rt.trial, procFaultEnt(p, rt.faultK[p]))
	rt.faultK[p]++
	return d
}

// execDur returns the realized duration of one execution attempt of
// unit v on resource p: the static estimate, scaled by the unit's
// perturbation multiplier and a processor's runtime speed factor,
// minus any checkpoint credit.
func (rt *runtime) execDur(v int32, p int) int64 {
	dur := rt.x.execTime(v, p)
	if rt.opts.Sim.Perturb.Dist != DistNone {
		dur = scaleDur(dur, rt.opts.Sim.Perturb.multiplier(rt.trial, rt.x.ent[v]))
	}
	if rt.opts.Sim.Speed != nil && p < rt.x.numProcs {
		dur = scaleDur(dur, rt.opts.Sim.Speed[p])
	}
	if rt.saved[v] > 0 {
		dur -= rt.saved[v]
		if dur < 1 {
			dur = 1
		}
	}
	return dur
}

// commLag returns the realized communication lag of edge a out of u:
// its weight scaled by the edge's multiplier. Co-located copies read
// data for free; only remote copies pay it.
func (rt *runtime) commLag(u int32, a dag.Arc) int64 {
	lag := a.Weight
	if lag > 0 && rt.opts.Sim.Perturb.Dist != DistNone {
		lag = scaleDur(lag, rt.opts.Sim.Perturb.multiplier(rt.trial, commEnt(dag.NodeID(u), a.To)))
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
		if start > rt.x.floor[c.task] {
			rt.stalls++
		}
		c.released = true
		c.start = start
		c.finish = later(start, rt.execDur(c.task, p))
		rt.runningOn[p] = ci
		rt.heap.push(event{t: c.finish, key: evComplete | uint32(ci), epoch: c.epoch})
		rt.pending++
		return
	}
}

// pushPastOutages returns the earliest time at or after r not covered
// by an outage window of channel ch, drawing windows on demand. Windows
// are drawn per channel endpoint pair, so they do not depend on the
// topology's channel numbering; consecutive windows are at least one
// tick apart, so one push clears r. A release at never stays there.
func (rt *runtime) pushPastOutages(ch int, r int64) int64 {
	g := &rt.gens[ch]
	if r == never {
		return never
	}
	u, v := rt.x.chans[ch][0], rt.x.chans[ch][1]
	for g.we <= r {
		up := expDuration(rt.opts.Faults.LinkMTBF, rt.trial, linkFaultEnt(u, v, g.k))
		out := expDuration(rt.opts.Faults.MeanOutage, rt.trial, linkFaultEnt(u, v, g.k+1))
		g.k += 2
		g.ws = later(g.we, up)
		g.we = later(g.ws, out)
	}
	if g.ws <= r {
		return g.we
	}
	return r
}

// complete processes one copy completion: the first finisher of a unit
// records the result, folds realized data arrivals into every live copy
// of each child, and cancels sibling copies that have not started;
// later finishers (a replica racing a survivor) just free their
// processor.
func (rt *runtime) complete(ev event) {
	c := &rt.copies[ev.id()]
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
		rt.won[c.task] = ev.id()
		if int(c.task) < rt.x.tasks {
			rt.remaining--
			rt.makespan = max(rt.makespan, t)
		}
		for si := c.task; si >= 0; si = rt.copies[si].next {
			if si == ev.id() {
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
		// Fold the data arrival into every live copy of each unfinished
		// child, and offer the copies to their resources once the child
		// has no unfinished predecessor left.
		for _, a := range rt.x.succs(c.task) {
			child := int32(a.To)
			rt.deps[child]--
			if rt.done[child] {
				continue
			}
			if rt.unplaced > 0 {
				rt.resume(child) // a repair pass is live
			}
			ready := rt.deps[child] == 0
			lag := int64(-1) // drawn for the first remote copy
			for cc := child; cc >= 0; cc = rt.copies[cc].next {
				k := &rt.copies[cc]
				if k.dead {
					continue
				}
				arr := t
				if k.proc != c.proc {
					if lag < 0 {
						lag = rt.commLag(c.task, a)
					}
					arr = later(t, lag)
				}
				if arr > k.ready {
					k.ready = arr
				}
				if ready {
					rt.tryRelease(int(k.proc))
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
		// A repair drawn past never does not happen.
		if rt.repairAt[p] = later(tc, rt.nextFault(p, rt.opts.Faults.MeanRepair)); rt.repairAt[p] < never {
			rt.heap.push(event{t: rt.repairAt[p], key: evRepair | uint32(p)})
		}
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
	rt.heap.push(event{t: later(rt.now, rt.nextFault(p, rt.opts.Faults.MTBF)), key: evCrash | uint32(p)})
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

// countFT folds the run into the ft.* metrics.
func (rt *runtime) countFT() {
	if obs.MetricsEnabled() {
		ftRuns.Inc()
		ftEvents.Add(rt.events)
		ftCrashes.Add(int64(rt.crashes))
		ftLost.Add(int64(rt.remaining))
	}
}

// countSim folds the run into the sim.* metrics.
func (rt *runtime) countSim() {
	if obs.MetricsEnabled() {
		simRuns.Inc()
		simEvents.Add(rt.events)
		simStalls.Add(rt.stalls)
	}
}

// finished reports whether every task completed: no task remains and
// no repair pass aborted.
func (rt *runtime) finished() bool { return rt.remaining == 0 && !rt.aborted }

// downOf returns processor p's downtime with trailing downtime clamped
// to the horizon, so busy + idle + down partitions p's share of it
// exactly.
func (rt *runtime) downOf(p int) int64 {
	if rt.downAt[p] >= 0 && rt.horizon > rt.downAt[p] {
		return rt.down[p] + rt.horizon - rt.downAt[p]
	}
	return rt.down[p]
}

// result assembles the run's Result and folds it into the ft.* metrics.
func (rt *runtime) result() Result {
	rt.countFT()
	procs := len(rt.busy)
	split := make([]int64, 3*procs) // the Result owns its slices
	res := Result{
		Static:  rt.x.static,
		Horizon: rt.horizon,
		Crashes: rt.crashes,
		Lost:    rt.remaining,
		Busy:    split[:procs:procs],
		Idle:    split[procs : 2*procs : 2*procs],
		Down:    split[2*procs:],
	}
	for p := range res.Idle {
		res.Busy[p], res.Down[p] = rt.busy[p], rt.downOf(p)
		res.Idle[p] = rt.horizon - res.Busy[p] - res.Down[p]
	}
	if rt.finished() {
		res.Finished = true
		res.Makespan = rt.makespan
		res.Ratio = ratio(rt.makespan, rt.x.static)
	} else {
		res.Ratio = math.Inf(1)
	}
	return res
}
