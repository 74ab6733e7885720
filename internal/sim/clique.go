package sim

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/sched"
)

// Compile translates a complete clique-model schedule (BNP and UNC
// classes) into an executable Plan. Jobs are the tasks; arcs encode
// the static per-processor execution order (consecutive slots chain)
// and every precedence edge, with the edge's communication cost as a
// perturbable lag when the endpoints sit on different processors and
// no lag when they are co-located.
func Compile(s *sched.Schedule) (*Plan, error) {
	var b planBuilder
	if err := b.addTasks(&s.Tasks); err != nil {
		return nil, err
	}
	g := s.Graph()
	n := g.NumNodes()
	// Precedence: co-located data is free, remote data pays the
	// (perturbable) edge cost.
	for v := 0; v < n; v++ {
		node := dag.NodeID(v)
		for _, a := range g.Succs(node) {
			if s.ProcOf(node) == s.ProcOf(a.To) {
				b.addArc(int32(node), int32(a.To), 0, 0)
			} else {
				b.addArc(int32(node), int32(a.To), a.Weight, commEnt(node, a.To))
			}
		}
	}
	return b.finalize(), nil
}

// addTasks starts the plan from the processor side that every schedule
// model shares: one job per task, then the processor-exclusivity chains
// that run each processor's tasks in static start order. A task's base
// duration is read off the schedule, not the graph, so a heterogeneous
// schedule (per-processor speeds) replays the execution times it
// actually committed; Options.Speed is a further runtime perturbation
// on top of these.
func (b *planBuilder) addTasks(s *sched.Tasks) error {
	if !s.Complete() {
		return fmt.Errorf("sim: cannot compile a partial schedule (%d of %d tasks placed)",
			s.Placed(), s.Graph().NumNodes())
	}
	n := s.Graph().NumNodes()
	b.plan.tasks = n
	b.plan.numProcs = s.NumProcs()
	b.plan.static = s.Makespan()
	b.plan.jobs = make([]Job, 0, n)
	for v := 0; v < n; v++ {
		node := dag.NodeID(v)
		b.addJob(Job{
			Base:    s.FinishOf(node) - s.StartOf(node),
			Planned: s.StartOf(node),
			Ent:     taskEnt(node),
			Proc:    int32(s.ProcOf(node)),
			Chan:    -1,
		})
	}
	for p := 0; p < s.NumProcs(); p++ {
		slots := s.Slots(p)
		for i := 1; i < len(slots); i++ {
			b.addArc(int32(slots[i-1].Node), int32(slots[i].Node), 0, 0)
		}
	}
	return nil
}

// Simulate compiles and executes a complete clique-model schedule once
// under the given options (trial 0). For repeated execution compile
// once with Compile and call Plan.Run or MonteCarlo.
func Simulate(s *sched.Schedule, opts Options) (Result, error) {
	plan, err := Compile(s)
	if err != nil {
		return Result{}, err
	}
	mk, err := plan.Run(opts, 0)
	if err != nil {
		return Result{}, err
	}
	return Result{Static: plan.static, Makespan: mk, Ratio: ratio(mk, plan.static)}, nil
}
