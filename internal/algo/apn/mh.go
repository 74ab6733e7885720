package apn

import (
	"repro/internal/algo"
	"repro/internal/dag"
	"repro/internal/machine"
)

// MH is the Mapping Heuristic of El-Rewini and Lewis (1990), the classic
// list scheduler for arbitrary topologies.
//
// Ready nodes are prioritized by static level. The selected node is
// placed on the processor with the smallest earliest start time, where
// start times account for message routing over the network: each
// parent's message is routed hop-by-hop along the shortest path and
// queued behind earlier traffic on every link (El-Rewini and Lewis
// model link delay with routing tables updated as messages commit; the
// machine package's store-and-forward link timelines play that role
// here). Placement on the processor is non-insertion.
//
// The paper observes MH "yields fairly long schedule lengths for large
// graphs" (section 6.4.1) — priorities ignore communication, and no
// insertion is attempted.
//
// Implementation note: the processor scan is exact but pruned, like APN
// DLS's pair scan (see machine.Schedule.BestEST): a processor's messages
// are routed only while its routing-free lower bound can still beat the
// best start so far, and only until they show that it cannot.
func MH(g *dag.Graph, topo *machine.Topology) (*machine.Schedule, error) {
	return ScheduleHet("MH", g, topo, nil)
}

// runMH is MH with an optional heterogeneous speed vector.
func runMH(g *dag.Graph, topo *machine.Topology, speeds []float64) (*machine.Schedule, error) {
	sl := dag.StaticLevels(g)
	s, err := newSchedule(g, topo, speeds)
	if err != nil {
		return nil, err
	}
	for _, n := range algo.PriorityOrder(g, sl) {
		p, est, ok := s.BestEST(n)
		if !ok {
			panic("apn: MH popped node with unscheduled parent")
		}
		s.MustPlace(n, p, est)
	}
	return s, nil
}
