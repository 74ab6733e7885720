package sim

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/pq"
)

// Plan is a compiled schedule: a dependency graph of jobs ready to be
// executed by the discrete-event engine any number of times. Job IDs
// below tasks are task executions (one per graph node, ID == NodeID);
// the rest are per-link message transfers of an APN schedule. Arcs
// carry the release constraints — precedence (with the communication
// lag for clique schedules), processor order, message-hop chains, and
// link-channel order — in compressed sparse row form.
//
// A Plan is immutable after compilation and safe for concurrent Run
// calls from multiple goroutines.
type Plan struct {
	jobs     []Job
	arcs     []Arc
	arcOff   []int32
	indeg    []int32
	chans    [][2]int // directed link channels of an APN plan, indexed by Job.Chan
	tasks    int      // jobs[0:tasks] are task executions
	numProcs int      // processor count, for Options.Speed validation
	static   int64    // the schedule's planned makespan
}

// Job is one unit of simulated work: a task execution or an APN
// message transfer on one directed link channel.
type Job struct {
	Base    int64  // unperturbed duration (task weight or message cost)
	Planned int64  // static start time (the timetable release floor)
	Ent     uint64 // perturbation entity key
	Proc    int32  // processor of a task job, -1 for message transfers
	Chan    int32  // topology channel of a message job (index into Channels), -1 for tasks
}

// Arc releases job To when the owning job finishes, after an optional
// communication lag (clique cross-processor edges only).
type Arc struct {
	To   int32
	Base int64  // unperturbed lag
	Ent  uint64 // lag perturbation entity, 0 when Base is 0
}

// Static returns the planned (unperturbed) makespan of the compiled
// schedule.
func (p *Plan) Static() int64 { return p.static }

// Jobs returns the number of simulated jobs: one per task, plus one
// per committed link transfer for APN schedules.
func (p *Plan) Jobs() int { return len(p.jobs) }

// The read-only plan view below lets ft convert the same compiled job
// graph into its own runtime form. Returned slices alias the plan and
// must not be modified.

// Tasks returns the number of task jobs; they occupy job IDs
// 0..Tasks()-1, job ID == NodeID.
func (p *Plan) Tasks() int { return p.tasks }

// NumProcs returns the processor count of the compiled schedule.
func (p *Plan) NumProcs() int { return p.numProcs }

// Job returns job j.
func (p *Plan) Job(j int32) Job { return p.jobs[j] }

// Arcs returns the release arcs out of job j.
func (p *Plan) Arcs(j int32) []Arc { return p.arcs[p.arcOff[j]:p.arcOff[j+1]] }

// Channels returns the endpoints (from, to) of every directed channel of
// an APN plan's topology, indexed by Job.Chan in the topology's own
// numbering (machine.Topology.Channel); nil for clique plans.
func (p *Plan) Channels() [][2]int { return p.chans }

// Run executes the plan once under the given options and trial number
// and returns the realized makespan. Runs are deterministic in
// (Options, trial) and independent of each other; a Plan may be Run
// concurrently.
func (p *Plan) Run(opts Options, trial int) (int64, error) {
	if err := opts.validate(p.numProcs); err != nil {
		return 0, err
	}
	return p.run(&opts, trialSeed(opts.Seed, trial)), nil
}

// event is one job completion on the simulation clock. Ties break on
// job ID so the event trace is fully ordered (results are order-
// independent either way: releases are max-folds and counters).
type event struct {
	t int64
	j int32
}

// engine is the per-run mutable state, pooled so steady-state trials
// allocate nothing: the event heap and per-job arrays are reused.
type engine struct {
	deps  []int32
	ready []int64
	heap  *pq.Heap[event]

	// Run-scoped parameters, copied in by run so the release path is a
	// method (a closure would allocate per run).
	plan    *Plan
	perturb Perturbation
	speed   []float64
	trial   uint64
}

var enginePool = sync.Pool{New: func() any {
	return &engine{heap: pq.New[event](func(a, b event) bool {
		return a.t < b.t || (a.t == b.t && a.j < b.j)
	})}
}}

// release starts job j at its accumulated ready time and schedules its
// completion event after the (possibly perturbed) duration.
func (e *engine) release(j int32) {
	jb := &e.plan.jobs[j]
	dur := jb.Base
	if e.perturb.Dist != DistNone {
		dur = scaleDur(dur, e.perturb.multiplier(e.trial, jb.Ent))
	}
	if e.speed != nil && jb.Proc >= 0 {
		dur = scaleDur(dur, e.speed[jb.Proc])
	}
	e.heap.Push(event{t: e.ready[j] + dur, j: j})
}

// run is the validated core of Run: one discrete-event execution.
func (p *Plan) run(opts *Options, trial uint64) int64 {
	e := enginePool.Get().(*engine)
	e.plan, e.perturb, e.speed, e.trial = p, opts.Perturb, opts.Speed, trial
	n := len(p.jobs)
	e.deps = resize(e.deps, n)
	copy(e.deps, p.indeg)
	e.ready = resize(e.ready, n)
	if opts.Policy == PolicyTimetable {
		for j := range e.ready {
			e.ready[j] = p.jobs[j].Planned
		}
	} else {
		for j := range e.ready {
			e.ready[j] = 0
		}
	}
	e.heap.Reset()
	for j := 0; j < n; j++ {
		if e.deps[j] == 0 {
			e.release(int32(j))
		}
	}
	var makespan int64
	for e.heap.Len() > 0 {
		ev := e.heap.Pop()
		if int(ev.j) < p.tasks && ev.t > makespan {
			makespan = ev.t
		}
		for _, a := range p.arcs[p.arcOff[ev.j]:p.arcOff[ev.j+1]] {
			arr := ev.t
			if a.Base > 0 {
				lag := a.Base
				if e.perturb.Dist != DistNone {
					lag = scaleDur(lag, e.perturb.multiplier(trial, a.Ent))
				}
				arr += lag
			}
			if arr > e.ready[a.To] {
				e.ready[a.To] = arr
			}
			if e.deps[a.To]--; e.deps[a.To] == 0 {
				e.release(a.To)
			}
		}
	}
	if obs.MetricsEnabled() {
		// Every job fires exactly one completion event; a job is stalled
		// when upstream perturbation pushed its realized release past the
		// planned start floor.
		var stalls int64
		for j := range p.jobs {
			if e.ready[j] > p.jobs[j].Planned {
				stalls++
			}
		}
		simRuns.Inc()
		simEvents.Add(int64(n))
		simStalls.Add(stalls)
	}
	e.plan, e.speed = nil, nil // do not pin while pooled
	enginePool.Put(e)
	return makespan
}

// resize returns a slice of length n, reusing the backing array when
// large enough. Contents are unspecified; callers overwrite them.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// planBuilder accumulates jobs and arcs during compilation and
// finalizes the CSR layout. Compilation happens once per schedule;
// the builder favors clarity over pooling.
type planBuilder struct {
	plan Plan
	from []int32 // arc sources, parallel to plan.arcs before finalize
}

// addJob appends a job and returns its ID.
func (b *planBuilder) addJob(j Job) int32 {
	b.plan.jobs = append(b.plan.jobs, j)
	return int32(len(b.plan.jobs) - 1)
}

// addArc records a release constraint from job u to job v.
func (b *planBuilder) addArc(u, v int32, base int64, ent uint64) {
	b.from = append(b.from, u)
	b.plan.arcs = append(b.plan.arcs, Arc{To: v, Base: base, Ent: ent})
}

// finalize sorts the arcs into CSR layout and computes in-degrees.
func (b *planBuilder) finalize() *Plan {
	p := &b.plan
	n := len(p.jobs)
	p.arcOff = make([]int32, n+1)
	for _, u := range b.from {
		p.arcOff[u+1]++
	}
	for i := 1; i <= n; i++ {
		p.arcOff[i] += p.arcOff[i-1]
	}
	sorted := make([]Arc, len(p.arcs))
	next := make([]int32, n)
	for i, u := range b.from {
		sorted[p.arcOff[u]+next[u]] = p.arcs[i]
		next[u]++
	}
	p.arcs = sorted
	p.indeg = make([]int32, n)
	for _, a := range p.arcs {
		p.indeg[a.To]++
	}
	return p
}
