package sim

import (
	"sort"

	"repro/internal/dag"
	"repro/internal/machine"
)

// CompileAPN translates a complete APN schedule into an executable
// Plan. Tasks become jobs exactly as in the clique model; in addition,
// every committed link reservation becomes a message-transfer job
// whose duration is the (perturbable) edge cost. Arcs chain each
// message store-and-forward along its committed route — parent task to
// first hop, hop to hop, last hop to child task — and chain every
// directed link channel through its transfers in static reservation
// order, which is the per-link contention queue: a transfer cannot
// begin until the channel has finished every transfer planned before
// it. Co-located and zero-cost edges release the child directly.
func CompileAPN(s *machine.Schedule) (*Plan, error) {
	var b planBuilder
	if err := b.addTasks(&s.Tasks); err != nil {
		return nil, err
	}
	g := s.Graph()
	n := g.NumNodes()
	// Message-hop jobs, one per committed link reservation, chained
	// along the route, plus per-channel transfer lists for the
	// contention queues. Job.Chan is the topology's channel, and
	// Plan.chans records every channel's endpoints.
	type chanHop struct {
		job   int32
		start int64 // static reservation start, the queue order key
	}
	topo := s.Topology()
	chanHops := make([][]chanHop, topo.NumChannels())
	b.plan.chans = make([][2]int, topo.NumChannels())
	for c := range b.plan.chans {
		from, to := topo.Ends(c)
		b.plan.chans[c] = [2]int{from, to}
	}
	for v := 0; v < n; v++ {
		child := dag.NodeID(v)
		for _, pr := range g.Preds(child) {
			parent := pr.To
			prev := int32(parent) // previous job in the message chain
			s.EachMessageHop(parent, child, func(h machine.LinkHop) {
				job := b.addJob(Job{
					Base:    h.Finish - h.Start,
					Planned: h.Start,
					Ent:     commEnt(parent, child),
					Proc:    -1,
					Chan:    int32(h.Link),
				})
				b.addArc(prev, job, 0, 0)
				chanHops[h.Link] = append(chanHops[h.Link], chanHop{job: job, start: h.Start})
				prev = job
			})
			// The child waits for the last hop, or directly for the
			// parent when the edge needed no link time.
			b.addArc(prev, int32(child), 0, 0)
		}
	}
	// Contention queues: chain each channel's transfers in static
	// start order. Static reservations on one channel never overlap
	// and have positive duration, so starts are distinct and the
	// order is total.
	for _, hops := range chanHops {
		sort.Slice(hops, func(i, j int) bool { return hops[i].start < hops[j].start })
		for i := 1; i < len(hops); i++ {
			b.addArc(hops[i-1].job, hops[i].job, 0, 0)
		}
	}
	return b.finalize(), nil
}

// SimulateAPN compiles and executes a complete APN schedule once under
// the given options (trial 0). For repeated execution compile once
// with CompileAPN and call Plan.Run or MonteCarlo.
func SimulateAPN(s *machine.Schedule, opts Options) (Result, error) {
	plan, err := CompileAPN(s)
	if err != nil {
		return Result{}, err
	}
	mk, err := plan.Run(opts, 0)
	if err != nil {
		return Result{}, err
	}
	return Result{Static: plan.static, Makespan: mk, Ratio: ratio(mk, plan.static)}, nil
}
