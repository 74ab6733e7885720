package ft

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/sched"
)

// Exec is a compiled schedule ready for execution: a graph of units,
// each bound to one resource, and every resource's static queue. A unit
// is a task or, for an APN schedule, one message hop; a resource is a
// processor or, numbered after the processors, a directed link channel.
// It is immutable after compilation and safe for concurrent runs. It
// keeps a graph and placement, not a fixed release order, because
// recovery policies re-place work at runtime.
type Exec struct {
	g        *dag.Graph // clique: the task graph, which is the unit graph; nil for APN
	tasks    int        // units [0, tasks) are the schedule's tasks
	numProcs int        // resources [0, numProcs) are processors
	static   int64
	speeds   []float64 // schedule-level speed vector, nil when homogeneous
	res      []int32   // static resource per unit
	floor    []int64   // static start per unit (the timetable floor)
	ent      []uint64  // perturbation entity per unit
	queue    [][]int32 // static unit order per resource
	chans    [][2]int  // endpoints of channel resource numProcs+c

	// The unit graph of an APN execution (g == nil): base durations
	// and the message chains in CSR form, all lag-free.
	base   []int64
	arcOff []int32
	arcs   []dag.Arc
	indeg  []int32

	// Repair priorities, computed on first use by a recovery policy.
	levelsOnce sync.Once
	blevel     []int64 // static b-levels
	byLevel    []int32 // units by descending b-level, then ID (replica order)
	rank       []int32 // each unit's position in byLevel
}

// Static returns the planned (unperturbed) makespan of the compiled
// schedule.
func (x *Exec) Static() int64 { return x.static }

// NumProcs returns the processor count of the compiled machine.
func (x *Exec) NumProcs() int { return x.numProcs }

// Units returns the number of units: one per task, plus one per
// committed link transfer for an APN schedule.
func (x *Exec) Units() int { return len(x.res) }

// Run executes the schedule once under the given options and trial
// number. Runs are deterministic in (Options, trial) and independent of
// each other.
func (x *Exec) Run(opts Options, trial int) (Result, error) {
	pol, err := x.check(&opts)
	if err != nil {
		return Result{}, err
	}
	rt := x.execute(&opts, pol, trial)
	defer rt.release()
	return rt.result(), nil
}

// Makespan executes the schedule once without faults under opts and
// returns the realized makespan: the fault-free simulator's entry. It
// allocates nothing once the runtime pool is warm, and it publishes
// the sim.* counters instead of ft.*.
func (x *Exec) Makespan(opts SimOptions, trial int) (int64, error) {
	if err := opts.validate(x.numProcs); err != nil {
		return 0, err
	}
	rt := x.execute(&Options{Sim: opts}, nonePolicy{}, trial)
	mk := rt.makespan
	rt.countSim()
	rt.release()
	return mk, nil
}

// check validates opts against x and resolves the recovery policy; APN
// executions support only None.
func (x *Exec) check(opts *Options) (RecoveryPolicy, error) {
	if err := opts.validate(x.numProcs); err != nil {
		return nil, err
	}
	pol := opts.recovery()
	if x.g == nil && pol.Name() != "none" {
		return nil, fmt.Errorf("ft: recovery policy %q is not supported on APN schedules", pol.Name())
	}
	return pol, nil
}

// Compile translates a complete clique-model schedule (BNP and UNC
// classes) into an Exec: the units are the tasks, the unit graph is the
// task graph, and each processor's queue is its static slot order.
func Compile(s *sched.Schedule) (*Exec, error) {
	x, err := compileTasks(&s.Tasks)
	if err != nil {
		return nil, err
	}
	x.g = s.Graph()
	if sp := s.Speeds(); sp != nil {
		x.speeds = append([]float64(nil), sp...)
	}
	return x, nil
}

// CompileAPN translates a complete APN schedule into an Exec in one
// pass. Tasks become units exactly as in the clique model, with the
// durations they committed; every committed link reservation becomes a
// message-hop unit on its channel (resource numProcs + the topology's
// channel number) whose duration is the edge's cost. Hop units follow
// the tasks in (child, parent, route) order and chain each message
// store-and-forward along its route: parent to first hop, hop to hop,
// last hop to child; a co-located or zero-cost edge links parent to
// child directly. Each channel queues its hops in static reservation
// order, which is the per-link contention queue: a transfer cannot
// begin until the channel has finished every transfer planned before
// it. Static reservations on one channel never overlap and have
// positive duration, so that order is total.
func CompileAPN(s *machine.Schedule) (*Exec, error) {
	x, err := compileTasks(&s.Tasks)
	if err != nil {
		return nil, err
	}
	g, n := s.Graph(), x.tasks
	topo := s.Topology()
	x.chans = make([][2]int, topo.NumChannels())
	for c := range x.chans {
		from, to := topo.Ends(c)
		x.chans[c] = [2]int{from, to}
	}
	x.queue = append(x.queue, make([][]int32, len(x.chans))...)
	x.base = make([]int64, n)
	for v := range x.base {
		x.base[v] = s.FinishOf(dag.NodeID(v)) - s.StartOf(dag.NodeID(v))
	}
	var from, to []int32 // unit-graph arcs, in creation order
	for v := 0; v < n; v++ {
		child := dag.NodeID(v)
		for _, pr := range g.Preds(child) {
			prev, ent := int32(pr.To), commEnt(pr.To, child)
			s.EachMessageHop(pr.To, child, func(h machine.LinkHop) {
				u, r := int32(len(x.res)), x.numProcs+h.Link
				x.res = append(x.res, int32(r))
				x.floor = append(x.floor, h.Start)
				x.base = append(x.base, h.Finish-h.Start)
				x.ent = append(x.ent, ent)
				x.queue[r] = append(x.queue[r], u)
				from, to = append(from, prev), append(to, u)
				prev = u
			})
			from, to = append(from, prev), append(to, int32(child))
		}
	}
	for _, q := range x.queue[x.numProcs:] {
		slices.SortFunc(q, func(a, b int32) int { return cmp.Compare(x.floor[a], x.floor[b]) })
	}
	m := len(x.res)
	x.arcOff = make([]int32, m+1)
	x.indeg = make([]int32, m)
	for i, u := range from {
		x.arcOff[u+1]++
		x.indeg[to[i]]++
	}
	for u := 0; u < m; u++ {
		x.arcOff[u+1] += x.arcOff[u]
	}
	x.arcs = make([]dag.Arc, len(from))
	next := slices.Clone(x.arcOff[:m])
	for i, u := range from {
		x.arcs[next[u]] = dag.Arc{To: dag.NodeID(to[i])}
		next[u]++
	}
	return x, nil
}

// compileTasks starts an Exec from the processor side both schedule
// models share: one unit per task, on its processor, with its static
// start and entity, and each processor's queue in static slot order.
func compileTasks(s *sched.Tasks) (*Exec, error) {
	n := s.Graph().NumNodes()
	if !s.Complete() {
		return nil, fmt.Errorf("ft: cannot compile a partial schedule (%d of %d tasks placed)", s.Placed(), n)
	}
	x := &Exec{
		tasks:    n,
		numProcs: s.NumProcs(),
		static:   s.Makespan(),
		res:      make([]int32, n),
		floor:    make([]int64, n),
		ent:      make([]uint64, n),
		queue:    make([][]int32, s.NumProcs()),
	}
	for v := 0; v < n; v++ {
		node := dag.NodeID(v)
		x.res[v] = int32(s.ProcOf(node))
		x.floor[v] = s.StartOf(node)
		x.ent[v] = taskEnt(node)
	}
	for p := range x.queue {
		slots := s.Slots(p)
		x.queue[p] = make([]int32, len(slots))
		for i, sl := range slots {
			x.queue[p][i] = int32(sl.Node)
		}
	}
	return x, nil
}

// succs returns the unit-graph successors of unit v with their
// communication costs.
func (x *Exec) succs(v int32) []dag.Arc {
	if x.g == nil {
		return x.arcs[x.arcOff[v]:x.arcOff[v+1]]
	}
	return x.g.Succs(dag.NodeID(v))
}

// inDegree returns the number of unit-graph predecessors of unit v.
func (x *Exec) inDegree(v int32) int32 {
	if x.g == nil {
		return x.indeg[v]
	}
	return int32(x.g.InDegree(dag.NodeID(v)))
}

// execTime returns the static execution-time estimate of unit v on
// resource p: its weight, scaled by p's speed on a heterogeneous
// machine by sched's rounding rule, so for the static placement it
// equals the committed slot duration exactly.
func (x *Exec) execTime(v int32, p int) int64 {
	if x.g == nil {
		return x.base[v]
	}
	return sched.ScaledTime(x.g.Weight(dag.NodeID(v)), x.speeds, p)
}

// levels computes the repair priorities on first use: only the repair
// pass and the replicate policy read them, so executions that never
// recover never pay for them.
func (x *Exec) levels() {
	x.levelsOnce.Do(func() {
		x.blevel = dag.BLevels(x.g)
		x.byLevel = make([]int32, x.tasks)
		for v := range x.byLevel {
			x.byLevel[v] = int32(v)
		}
		slices.SortFunc(x.byLevel, func(a, b int32) int {
			if c := cmp.Compare(x.blevel[b], x.blevel[a]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		x.rank = make([]int32, x.tasks)
		for r, v := range x.byLevel {
			x.rank[v] = int32(r)
		}
	})
}
