package ft

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Exec is a compiled schedule ready for fault-injected execution: a
// graph of units, each bound to one resource, and every resource's
// static queue. A unit is a task or, for an APN schedule, one message
// hop; a resource is a processor or, numbered after the processors, a
// directed link channel. Like sim.Plan it is immutable after
// compilation and safe for concurrent Run calls; unlike sim.Plan it
// keeps a graph and placement (not just a job DAG), because recovery
// policies re-place work at runtime.
type Exec struct {
	g        *dag.Graph // unit graph: node weights are base durations
	tasks    int        // units [0, tasks) are the schedule's tasks
	numProcs int        // resources [0, numProcs) are processors
	static   int64
	speeds   []float64 // schedule-level speed vector, nil when homogeneous
	res      []int32   // static resource per unit
	floor    []int64   // static start per unit (the timetable floor)
	ent      []uint64  // perturbation entity per unit
	queue    [][]int32 // static unit order per resource
	blevel   []int64   // static b-levels (repair priority), nil for APN
	byLevel  []int32   // units by descending b-level, then ID (replica order)
	chans    [][2]int  // endpoints of channel resource numProcs+c
	apn      bool      // compiled from an APN schedule: None policy only
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
	if x.apn && pol.Name() != "none" {
		return nil, fmt.Errorf("ft: recovery policy %q is not supported on APN schedules", pol.Name())
	}
	return pol, nil
}

// Compile translates a complete clique-model schedule (BNP and UNC
// classes) into a fault-capable Exec: the units are the tasks, the
// unit graph is the task graph, and each processor's queue is its
// static slot order.
func Compile(s *sched.Schedule) (*Exec, error) {
	if !s.Complete() {
		return nil, fmt.Errorf("ft: cannot compile a partial schedule (%d of %d tasks placed)",
			s.Placed(), s.Graph().NumNodes())
	}
	g := s.Graph()
	n := g.NumNodes()
	x := &Exec{
		g:        g,
		tasks:    n,
		numProcs: s.NumProcs(),
		static:   s.Makespan(),
		res:      make([]int32, n),
		floor:    make([]int64, n),
		ent:      make([]uint64, n),
		queue:    make([][]int32, s.NumProcs()),
		blevel:   dag.BLevels(g),
	}
	if sp := s.Speeds(); sp != nil {
		x.speeds = append([]float64(nil), sp...)
	}
	for v := 0; v < n; v++ {
		node := dag.NodeID(v)
		x.res[v] = int32(s.ProcOf(node))
		x.floor[v] = s.StartOf(node)
		x.ent[v] = sim.TaskEntity(node)
	}
	for p := range x.queue {
		for _, sl := range s.Slots(p) {
			x.queue[p] = append(x.queue[p], int32(sl.Node))
		}
	}
	x.byLevel = make([]int32, n)
	for v := range x.byLevel {
		x.byLevel[v] = int32(v)
	}
	slices.SortFunc(x.byLevel, func(a, b int32) int {
		if c := cmp.Compare(x.blevel[b], x.blevel[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return x, nil
}

// CompileAPN translates a complete APN schedule into a fault-capable
// Exec. Which jobs and chains the schedule becomes is decided by
// sim.CompileAPN alone: job j becomes unit j with the job's duration,
// start floor and entity, and the plan's arcs become unit-graph edges
// (a co-located parent that directly precedes its child has both a
// precedence arc and a processor-chain arc, kept once). The processor
// and channel chains order each resource's units totally, so queueing
// them in topological order reproduces the plan's order, and the
// zero-fault run is byte-identical to the fault-free simulator.
func CompileAPN(s *machine.Schedule) (*Exec, error) {
	if !s.Complete() {
		return nil, fmt.Errorf("ft: cannot compile a partial APN schedule (%d of %d tasks placed)",
			s.Placed(), s.Graph().NumNodes())
	}
	plan, err := sim.CompileAPN(s)
	if err != nil {
		return nil, err
	}
	m := plan.Jobs()
	x := &Exec{
		tasks:    plan.Tasks(),
		numProcs: plan.NumProcs(),
		static:   plan.Static(),
		res:      make([]int32, m),
		floor:    make([]int64, m),
		ent:      make([]uint64, m),
		queue:    make([][]int32, plan.NumProcs()+len(plan.Channels())),
		chans:    plan.Channels(),
		apn:      true,
	}
	b := dag.NewBuilder()
	last := make([]int32, m) // last source an arc into each job came from
	for j := int32(0); j < int32(m); j++ {
		jb := plan.Job(j)
		b.AddNode(jb.Base)
		x.res[j] = jb.Proc
		if jb.Proc < 0 {
			x.res[j] = int32(x.numProcs) + jb.Chan
		}
		x.floor[j] = jb.Planned
		x.ent[j] = jb.Ent
		last[j] = -1
	}
	for j := int32(0); j < int32(m); j++ {
		for _, a := range plan.Arcs(j) {
			if last[a.To] != j {
				last[a.To] = j
				b.AddEdge(dag.NodeID(j), dag.NodeID(a.To), 0)
			}
		}
	}
	if x.g, err = b.Build(); err != nil {
		return nil, err
	}
	for _, u := range x.g.TopoOrder() {
		x.queue[x.res[u]] = append(x.queue[x.res[u]], int32(u))
	}
	return x, nil
}

// execTime returns the static execution-time estimate of unit v on
// resource p: its weight, scaled by p's speed on a heterogeneous
// machine by sched's rounding rule, so for the static placement it
// equals the committed slot duration exactly.
func (x *Exec) execTime(v int32, p int) int64 {
	return sched.ScaledTime(x.g.Weight(dag.NodeID(v)), x.speeds, p)
}
