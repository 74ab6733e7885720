package ft

import (
	"fmt"
	"sync"

	"repro/internal/machine"
	"repro/internal/sim"
)

// CompileAPN translates a complete APN schedule into a fault-capable
// Exec. The APN engine replays sim.CompileAPN's plan itself — its
// tasks, per-hop message transfers, processor chains, route chains and
// per-channel contention chains — so the zero-fault replay is
// byte-identical to the fault-free simulator.
func CompileAPN(s *machine.Schedule) (*Exec, error) {
	if !s.Complete() {
		return nil, fmt.Errorf("ft: cannot compile a partial APN schedule (%d of %d tasks placed)",
			s.Placed(), s.Graph().NumNodes())
	}
	plan, err := sim.CompileAPN(s)
	if err != nil {
		return nil, err
	}
	return &Exec{apn: plan, numProcs: plan.NumProcs(), static: plan.Static()}, nil
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

// apnRuntime is the mutable state of one fault-injected APN execution:
// sim's arc-based event loop over the compiled plan plus the shared
// processor fault clock and per-channel outage generators.
type apnRuntime struct {
	procClock
	plan *sim.Plan

	deps     []int32
	ready    []int64
	startAt  []int64 // realized start of a released job
	epoch    []int32
	released []bool
	finished []bool // per task
	alive    []bool // per task; false once its processor crashed

	gens []outGen
}

// runAPN executes the compiled APN plan once under faults. Only the
// None recovery policy applies (rerouting messages around failures is
// out of scope): crashes permanently kill the unfinished tasks of the
// processor, and link outages delay the start of message transfers on
// the affected channel while in-flight transfers complete.
func runAPN(plan *sim.Plan, opts *Options, trial int) Result {
	rt := apnPool.Get().(*apnRuntime)
	rt.reset(plan)
	tasks := plan.Tasks()
	rt.start(opts, trial, plan.Static(), plan.NumProcs(), tasks)
	if opts.Sim.Policy == sim.PolicyTimetable {
		for j := range rt.ready {
			rt.ready[j] = plan.Job(int32(j)).Planned
		}
	}
	for v := range rt.alive {
		rt.alive[v] = true
	}
	for j := range rt.deps {
		if rt.deps[j] == 0 {
			rt.release(int32(j))
		}
	}
	for rt.remaining > 0 && rt.pending > 0 {
		switch ev := rt.next(); ev.kind {
		case evComplete:
			rt.complete(ev)
		case evCrash:
			rt.crash(int(ev.id))
		case evRepair:
			// Under the None policy no new work is placed on a repaired
			// processor — its tasks died with the crash — but downtime
			// accounting needs the boundary.
			rt.repair(int(ev.id))
		}
	}
	res := rt.result(false)
	rt.plan, rt.opts = nil, nil // do not pin while pooled
	apnPool.Put(rt)
	return res
}

// apnPool recycles the APN runtime across trials, as sim pools its
// engine: the per-job, per-task and per-channel arrays and the clock's
// event heap.
var apnPool = sync.Pool{New: func() any { return new(apnRuntime) }}

// reset sizes the runtime's arrays for plan and empties them, reusing
// every backing array that is large enough.
func (rt *apnRuntime) reset(plan *sim.Plan) {
	m, tasks := plan.Jobs(), plan.Tasks()
	rt.plan = plan
	rt.deps = append(rt.deps[:0], plan.InDegrees()...)
	rt.ready = resize(rt.ready, m)
	rt.startAt = resize(rt.startAt, m)
	rt.epoch = resize(rt.epoch, m)
	rt.released = resize(rt.released, m)
	rt.finished = resize(rt.finished, tasks)
	rt.alive = resize(rt.alive, tasks)
	if ch := len(plan.Channels()); cap(rt.gens) < ch {
		rt.gens = make([]outGen, ch)
	} else {
		rt.gens = rt.gens[:ch]
	}
	for i := range rt.gens {
		// Keep each channel's window capacity.
		rt.gens[i] = outGen{wins: rt.gens[i].wins[:0]}
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

// release starts job j at its accumulated ready time — pushed past any
// outage window for a message transfer — and schedules its completion.
// A task whose processor already crashed is dead and never starts.
func (rt *apnRuntime) release(j int32) {
	jb := rt.plan.Job(j)
	if jb.Proc >= 0 && !rt.alive[j] {
		return
	}
	dur := jb.Base
	if rt.opts.Sim.Perturb.Dist != sim.DistNone {
		dur = sim.ScaleDur(dur, rt.opts.Sim.Perturb.Multiplier(rt.trial, jb.Ent))
	}
	if rt.opts.Sim.Speed != nil && jb.Proc >= 0 {
		dur = sim.ScaleDur(dur, rt.opts.Sim.Speed[jb.Proc])
	}
	start := rt.ready[j]
	if jb.Chan >= 0 && rt.opts.Faults.LinkMTBF > 0 {
		start = rt.pushPastOutages(int(jb.Chan), start)
	}
	rt.startAt[j] = start
	rt.released[j] = true
	rt.heap.Push(event{t: start + dur, kind: evComplete, id: j, epoch: rt.epoch[j]})
	rt.pending++
}

// pushPastOutages returns the earliest time at or after r not covered
// by an outage window of channel ch, generating windows on demand.
// Windows are drawn per channel endpoint pair, so they do not depend
// on the plan's channel numbering.
func (rt *apnRuntime) pushPastOutages(ch int, r int64) int64 {
	g := &rt.gens[ch]
	ends := rt.plan.Channels()[ch]
	u, v := ends[0], ends[1]
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

// complete processes one job completion, folding the clock into each
// successor's ready time and releasing those whose dependencies clear.
func (rt *apnRuntime) complete(ev event) {
	j := ev.id
	if rt.epoch[j] != ev.epoch || !rt.released[j] {
		return // killed while in flight; pending was already adjusted
	}
	rt.pending--
	rt.released[j] = false
	t := ev.t
	if p := rt.plan.Job(j).Proc; p >= 0 {
		rt.busy[p] += t - rt.startAt[j]
		rt.finished[j] = true
		rt.remaining--
		if t > rt.makespan {
			rt.makespan = t
		}
	}
	for _, a := range rt.plan.Arcs(j) {
		if t > rt.ready[a.To] {
			rt.ready[a.To] = t
		}
		if rt.deps[a.To]--; rt.deps[a.To] == 0 {
			rt.release(a.To)
		}
	}
}

// crash processes the fail-stop crash of processor p: every unfinished
// task placed on p is killed — the running one loses its partial work,
// released-but-not-started ones are cancelled — and a repair is
// scheduled when the model allows one. Messages are unaffected:
// store-and-forward transfers run on the links, not the processors.
func (rt *apnRuntime) crash(p int) {
	rt.procClock.crash(p)
	for j := int32(0); j < int32(len(rt.finished)); j++ {
		if int(rt.plan.Job(j).Proc) != p || rt.finished[j] || !rt.alive[j] {
			continue
		}
		if rt.released[j] {
			if rt.startAt[j] <= rt.now {
				rt.busy[p] += rt.now - rt.startAt[j]
			}
			rt.epoch[j]++
			rt.released[j] = false
			rt.pending--
		}
		rt.alive[j] = false
	}
}
