package ft

import (
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/pq"
	"repro/internal/sched"
)

// Oracle is an independent fault-free executor the runtime is checked
// against: the arc engine. It compiles a schedule straight into a job
// DAG whose arcs carry every release constraint — precedence with the
// communication lag of a cross-processor clique edge, processor order,
// message-hop chains and link-channel order — and replays it by
// folding arc arrivals into release times over an event heap. It shares
// only the counter-based randomness with the runtime; compile, queues
// and event loop are its own.
type Oracle struct {
	jobs   []oracleJob
	out    [][]oracleArc // release arcs out of each job
	indeg  []int32
	tasks  int // jobs[0:tasks] are the task executions
	procs  int
	static int64
}

// oracleJob is one task execution or one message transfer on a link.
type oracleJob struct {
	base    int64  // unperturbed duration
	planned int64  // static start, the timetable floor
	ent     uint64 // perturbation entity
	proc    int32  // processor of a task job, -1 for a transfer
}

// oracleArc releases job to when its source finishes, after an
// optional perturbable lag.
type oracleArc struct {
	to   int32
	base int64
	ent  uint64
}

func (o *Oracle) addJob(j oracleJob) int32 {
	o.jobs = append(o.jobs, j)
	o.out = append(o.out, nil)
	o.indeg = append(o.indeg, 0)
	return int32(len(o.jobs) - 1)
}

func (o *Oracle) addArc(u, v int32, base int64, ent uint64) {
	o.out[u] = append(o.out[u], oracleArc{to: v, base: base, ent: ent})
	o.indeg[v]++
}

// oracleTasks adds one job per task, with the duration the schedule
// committed, and chains each processor's tasks in slot order.
func oracleTasks(s *sched.Tasks) (*Oracle, error) {
	if !s.Complete() {
		return nil, fmt.Errorf("oracle: partial schedule")
	}
	o := &Oracle{tasks: s.Graph().NumNodes(), procs: s.NumProcs(), static: s.Makespan()}
	for v := 0; v < o.tasks; v++ {
		n := dag.NodeID(v)
		o.addJob(oracleJob{base: s.FinishOf(n) - s.StartOf(n), planned: s.StartOf(n), ent: taskEnt(n), proc: int32(s.ProcOf(n))})
	}
	for p := 0; p < o.procs; p++ {
		slots := s.Slots(p)
		for i := 1; i < len(slots); i++ {
			o.addArc(int32(slots[i-1].Node), int32(slots[i].Node), 0, 0)
		}
	}
	return o, nil
}

// OracleCompile compiles a clique schedule: remote data pays the
// edge's perturbable cost, co-located data is free.
func OracleCompile(s *sched.Schedule) (*Oracle, error) {
	o, err := oracleTasks(&s.Tasks)
	if err != nil {
		return nil, err
	}
	g := s.Graph()
	for v := 0; v < o.tasks; v++ {
		n := dag.NodeID(v)
		for _, a := range g.Succs(n) {
			if s.ProcOf(n) == s.ProcOf(a.To) {
				o.addArc(int32(n), int32(a.To), 0, 0)
			} else {
				o.addArc(int32(n), int32(a.To), a.Weight, commEnt(n, a.To))
			}
		}
	}
	return o, nil
}

// OracleCompileAPN compiles an APN schedule: one job per committed
// hop, chained along its route, and each channel's transfers chained
// in static start order.
func OracleCompileAPN(s *machine.Schedule) (*Oracle, error) {
	o, err := oracleTasks(&s.Tasks)
	if err != nil {
		return nil, err
	}
	g := s.Graph()
	type hop struct {
		job   int32
		start int64
	}
	byChan := map[int][]hop{}
	for v := 0; v < o.tasks; v++ {
		child := dag.NodeID(v)
		for _, pr := range g.Preds(child) {
			prev := int32(pr.To)
			s.EachMessageHop(pr.To, child, func(h machine.LinkHop) {
				j := o.addJob(oracleJob{base: h.Finish - h.Start, planned: h.Start, ent: commEnt(pr.To, child), proc: -1})
				o.addArc(prev, j, 0, 0)
				byChan[h.Link] = append(byChan[h.Link], hop{j, h.Start})
				prev = j
			})
			o.addArc(prev, int32(child), 0, 0)
		}
	}
	for _, hops := range byChan {
		sort.Slice(hops, func(i, j int) bool { return hops[i].start < hops[j].start })
		for i := 1; i < len(hops); i++ {
			o.addArc(hops[i-1].job, hops[i].job, 0, 0)
		}
	}
	return o, nil
}

// Static returns the schedule's planned makespan.
func (o *Oracle) Static() int64 { return o.static }

// Jobs returns the number of jobs, which is the number of completion
// events of every run.
func (o *Oracle) Jobs() int { return len(o.jobs) }

// Run executes the job DAG once and returns the realized makespan and
// the number of stalls: jobs released later than their static start.
func (o *Oracle) Run(opts SimOptions, trial int) (makespan, stalls int64, err error) {
	if err := opts.validate(o.procs); err != nil {
		return 0, 0, err
	}
	tr := trialSeed(opts.Seed, trial)
	type event struct {
		t int64
		j int32
	}
	heap := pq.New(func(a, b event) bool { return a.t < b.t || (a.t == b.t && a.j < b.j) })
	deps := append([]int32(nil), o.indeg...)
	ready := make([]int64, len(o.jobs))
	release := func(j int32) {
		jb := o.jobs[j]
		dur := scaleDur(jb.base, opts.Perturb.multiplier(tr, jb.ent))
		if opts.Speed != nil && jb.proc >= 0 {
			dur = scaleDur(dur, opts.Speed[jb.proc])
		}
		heap.Push(event{ready[j] + dur, j})
	}
	for j := range o.jobs {
		if opts.Policy == DispatchTimetable {
			ready[j] = o.jobs[j].planned
		}
	}
	for j := range o.jobs {
		if deps[j] == 0 {
			release(int32(j))
		}
	}
	for heap.Len() > 0 {
		ev := heap.Pop()
		if int(ev.j) < o.tasks {
			makespan = max(makespan, ev.t)
		}
		for _, a := range o.out[ev.j] {
			arr := ev.t + scaleDur(a.base, opts.Perturb.multiplier(tr, a.ent))
			ready[a.to] = max(ready[a.to], arr)
			if deps[a.to]--; deps[a.to] == 0 {
				release(a.to)
			}
		}
	}
	for j := range o.jobs {
		if ready[j] > o.jobs[j].planned {
			stalls++
		}
	}
	return makespan, stalls, nil
}
